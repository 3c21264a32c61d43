import inspect
import random
import textwrap
from fractions import Fraction
from math import gcd

import pytest

from jetcalc import ExponentOverflow, FunctionSpec, gke
from jetcalc.analysis import formal_symmetry_scan
from jetcalc.dsl import parse_series
import jetcalc.poly as poly_module
from jetcalc.expr import ONE_EXPR, JetExpr, derive
from jetcalc.poly import (
    EMPTY_MONO,
    FIELD_BITS,
    MAX_EXPONENT,
    ONE,
    T,
    X,
    ZERO,
    Poly,
    PolySum,
    _to_univariate,
    fnsym,
    jet,
    mono_factors,
    monomial,
    param,
    squarefree_factors,
    unknown_t,
)
from jetcalc.series import nth_root

POOL = [X, T, jet(0), jet(1), jet(2), fnsym("f"), fnsym("f", 1), param("b"), param("c")]


def random_poly(rng: random.Random, max_terms=5, max_factors=3, max_exp=3, pool=POOL) -> Poly:
    total = ZERO
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.const(Fraction(rng.randint(1, 5) * rng.choice((1, -1)),
                                   rng.choice((1, 2, 3))))
        for _ in range(rng.randint(0, max_factors)):
            term = term * Poly.gen(rng.choice(pool)) ** rng.randint(1, max_exp)
        total = total + term
    return total


def dense_reference(p: Poly, v) -> list[Poly]:
    """Coefficient list of p in v, one g-power at a time."""
    d = max((dict(m).get(v, 0) for m, _ in p.items()), default=0)
    out = []
    for k in range(d + 1):
        terms = {}
        for m, c in p.items():
            e = dict(m).get(v, 0)
            if e == k:
                rest = tuple((g, ee) for g, ee in m if g is not v)
                terms[rest] = terms.get(rest, Fraction(0)) + c
        coeff = ZERO
        for rest, c in terms.items():
            coeff = coeff + Poly.const(c) * Poly({monomial(rest): 1})
        out.append(coeff)
    return out


def test_split_recombines():
    rng = random.Random(61)
    for _ in range(300):
        p = random_poly(rng)
        gens = set(rng.sample(POOL, rng.randint(0, 4)))
        total = ZERO
        for outer, inner in p.split(gens).items():
            assert all(g in gens for g, _ in mono_factors(outer))
            assert not inner.is_zero()
            total = total + Poly({outer: 1}) * inner
        assert total == p


def test_split_inner_parts_free_of_gens():
    rng = random.Random(62)
    for _ in range(300):
        p = random_poly(rng)
        gens = set(rng.sample(POOL, rng.randint(1, 4)))
        for inner in p.split(gens).values():
            assert not (inner.generators() & gens)


def test_split_edge_cases():
    assert ZERO.split({X}) == {}
    assert ONE.split({X}) == {EMPTY_MONO: ONE}
    p = Poly.gen(X) * Poly.gen(T) + Poly.gen(T)
    assert p.split(set()) == {EMPTY_MONO: p}
    assert p.split({X, T}) == {monomial([(X, 1), (T, 1)]): ONE, monomial([(T, 1)]): ONE}


def test_to_univariate_matches_dense_reference():
    rng = random.Random(63)
    for _ in range(300):
        p = random_poly(rng)
        v = rng.choice(POOL)
        assert _to_univariate(p, v) == dense_reference(p, v)


def _guard_bits(nbits: int) -> int:
    """The top bit of every monomial field below bit nbits, and of one more."""
    return int(("1" + "0" * (FIELD_BITS - 1)) * (nbits // FIELD_BITS + 1), 2)


def _assert_canonical(p: Poly):
    guards = _guard_bits(max(p.terms, default=0).bit_length())
    assert all(type(m) is int and m >= 0 and not m & guards for m in p.terms), p
    assert all(type(c) is int and c != 0 for c in p.terms.values()), p
    assert type(p.den) is int and p.den >= 1, p
    assert gcd(p.den, *p.terms.values()) == 1, p


def test_every_poly_of_a_scan_and_a_root_is_canonical(monkeypatch):
    # int coefficients over one positive denominator, coprime with them: every
    # Poly built by Theorem 3 scans on log and quadratic f and by two roots at
    # the default 20 slots is checked.  Earlier tests warm the memos, so the
    # two scans together keep the count bound in any test order.  The README
    # root folds its polynomial products into sums without building them, so
    # the root of the log branch, computed in w = u + c with rational
    # coefficients and translated back, joins it to keep the bound
    built = []
    init = Poly.__init__

    def checked_init(self, terms=None, den=1):
        init(self, terms, den)
        _assert_canonical(self)
        built.append(den)

    monkeypatch.setattr(Poly, "__init__", checked_init)
    formal_symmetry_scan(gke(FunctionSpec.log_shift()))
    formal_symmetry_scan(gke(FunctionSpec.quadratic()))
    scan_polys = len(built)
    nth_root(parse_series("xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x"), 5, slots=20)
    nth_root(parse_series("xi^5 + b*xi^3 + (gamma*ln(u+c) + delta)*xi + gamma*u_x/(u + c)"), 5,
             slots=20)
    assert scan_polys > 1000 and len(built) - scan_polys > 1000, (scan_polys, len(built))
    assert max(built) > 1
    for p in (ZERO, ONE):
        _assert_canonical(p)


def test_monomial_round_trip():
    # interned against the key order, so their fields run opposite to it
    late = [param("zz_late"), unknown_t("h_late"), fnsym("g_late"), jet(97)]
    pool = POOL + late
    assert [g.shift for g in late] == sorted(g.shift for g in late)
    rng = random.Random(64)
    for _ in range(300):
        gens = rng.sample(pool, rng.randint(0, len(pool)))
        pairs = tuple(sorted(((g, rng.randint(1, MAX_EXPONENT)) for g in gens),
                             key=lambda ge: ge[0].key))
        m = monomial(pairs)
        assert mono_factors(m) == pairs
        assert Poly({m: 1}).generators() == set(gens)
    assert monomial([]) == EMPTY_MONO and mono_factors(EMPTY_MONO) == ()


def test_partials_come_in_key_order():
    # derive takes its partials in generator key order, whatever the set
    # order, so its sums repeat exactly
    rng = random.Random(65)
    for _ in range(100):
        p = random_poly(rng)
        seen = []
        derive(JetExpr(p, ONE), lambda g: seen.append(g) or ONE_EXPR)
        assert seen == sorted(p.generators(), key=lambda g: g.key)


def test_leading_follows_the_key_order_not_the_interning_order():
    zb, za = param("zz_lead_b"), param("zz_lead_a")  # za takes the higher field
    a, b = Poly.gen(za), Poly.gen(zb)
    assert (b - a).leading() == (monomial([(zb, 1)]), 1)
    assert (a * b - b * b).leading() == (monomial([(zb, 2)]), -1)
    assert (a * b - b * b - a).leading() == (monomial([(zb, 2)]), -1)
    assert (a * a * b + b ** 3).leading() == (monomial([(zb, 3)]), 1)


def test_exponent_overflow_is_an_error():
    u = Poly.gen(jet(0))
    top = u ** MAX_EXPONENT
    assert top.terms == {monomial([(jet(0), MAX_EXPONENT)]): 1}
    assert len(_to_univariate(top, jet(0))) == MAX_EXPONENT + 1
    assert top.affine_slope(jet(0)) is None
    # u_x takes a field of its own: u keeps its exponent, the slope in u_x
    assert len(_to_univariate(top * Poly.gen(jet(1)), jet(0))) == MAX_EXPONENT + 1
    assert (top * Poly.gen(jet(1))).affine_slope(jet(1)) == top
    with pytest.raises(ExponentOverflow, match=f"exponent of u exceeds {MAX_EXPONENT}"):
        u ** (MAX_EXPONENT + 1)
    with pytest.raises(ExponentOverflow):
        top * u
    # the sum of two fields stays below the next field but sets the guard bit
    with pytest.raises(ExponentOverflow):
        top * top
    with pytest.raises(ExponentOverflow):
        monomial([(jet(0), MAX_EXPONENT + 1)])
    with pytest.raises(ExponentOverflow):
        monomial([(jet(0), MAX_EXPONENT), (jet(0), 1)])


def test_power_squares_from_the_base(monkeypatch):
    rng = random.Random(67)
    polys = [p for p in (random_poly(rng) for _ in range(40)) if p.den > 1][:12]
    assert len(polys) == 12
    for p in polys:
        expect = ONE
        for n in range(10):
            assert p ** n == expect, (p, n)
            expect = expect * p
    calls = [0]
    mul = Poly.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for p in polys:
        assert p ** 1 is p
    assert calls[0] == 0
    # squaring from the base still meets the exponent bound
    m = Poly.gen(jet(0)) * Poly.gen(jet(1))
    assert (m ** MAX_EXPONENT).terms == {monomial([(jet(0), MAX_EXPONENT),
                                                   (jet(1), MAX_EXPONENT)]): 1}
    with pytest.raises(ExponentOverflow):
        m ** (MAX_EXPONENT + 1)


def _product_oracle(cases: int, add_product=PolySum.add_product) -> list:
    """The cases in which add_product disagrees with Poly.__mul__ followed by
    PolySum.add.

    Each case folds one to four rational multiples of products p * q into
    one PolySum, and the products built by __mul__ into another; in half the
    cases each product is added again with the opposite sign, so the sum
    cancels to zero.  A third of the products carry u to a power near
    MAX_EXPONENT in p and to a small one in q: where __mul__ raises
    ExponentOverflow, add_product must raise it too and leave the sum as it
    was."""
    rng = random.Random(730)
    u = Poly.gen(jet(0))
    no_u = [g for g in POOL if g is not jet(0)]
    failures = []
    for case in range(cases):
        acc, ref = PolySum(), PolySum()
        cancel = case % 2
        try:
            for _ in range(rng.randint(1, 4)):
                p, q = random_poly(rng, pool=no_u), random_poly(rng, pool=no_u)
                if rng.random() < 0.35:
                    # u^big on every term of p beside a u-free part
                    p = p * u ** rng.randint(MAX_EXPONENT - 6, MAX_EXPONENT) + random_poly(rng)
                    q = q * u ** rng.randint(0, 4) + random_poly(rng, max_terms=1, pool=no_u)
                c = Fraction(rng.choice((-3, -1, 1, 2, 6)), rng.choice((1, 2, 3, 4)))
                try:
                    want = p * q
                except ExponentOverflow:
                    before = dict(acc.terms), acc.den
                    try:
                        add_product(acc, p, q, c.numerator, c.denominator)
                    except ExponentOverflow:
                        assert (dict(acc.terms), acc.den) == before, (case, p, q)
                        continue
                    raise AssertionError(f"no overflow: {case}, {p}, {q}")
                add_product(acc, p, q, c.numerator, c.denominator)
                ref.add(want, c.numerator, c.denominator)
                if cancel:
                    add_product(acc, q, p, -c.numerator, c.denominator)
            got = acc.value()
            _assert_canonical(got)
            assert got == (ZERO if cancel else ref.value()), (case, got)
        except AssertionError:
            failures.append(case)
    return failures


def test_add_product_matches_mul_and_add():
    assert _product_oracle(300) == []


def test_product_oracle_catches_an_add_product_without_its_guard_check():
    # a mutant of add_product that never looks at the guard bits
    src = textwrap.dedent(inspect.getsource(PolySum.add_product))
    mutant = src.replace("if (reduce(or_, p.terms) + reduce(or_, q.terms)) & _GUARDS:",
                         "if False:")
    assert mutant != src
    namespace = dict(vars(poly_module))
    exec(mutant, namespace)
    assert len(_product_oracle(100, namespace["add_product"])) > 10


def test_add_product_at_max_exponent():
    u, ux = Poly.gen(jet(0)), Poly.gen(jet(1))
    # the exponents 2^14 and 2^14 - 1 of u or to MAX_EXPONENT, so the first
    # test passes the sum to the exact one, which finds no overflow in u^(2^14 + 1)
    p = u ** 2 ** 14 + u ** (2 ** 14 - 1) * ux
    acc = PolySum()
    acc.add_product(p, u + ux, 2, 3)
    assert acc.value() == (p * (u + ux)).scale(Fraction(2, 3))
    acc = PolySum()
    acc.add_product(u ** MAX_EXPONENT, ux)
    acc.add_product(ux, u ** MAX_EXPONENT, -1)
    assert acc.value() == ZERO
    with pytest.raises(ExponentOverflow, match=f"exponent of u exceeds {MAX_EXPONENT}"):
        PolySum().add_product(p, u ** 2 ** 14 + ux)
    with pytest.raises(ExponentOverflow, match=f"exponent of u exceeds {MAX_EXPONENT}"):
        PolySum().add_product(u ** MAX_EXPONENT + ux, u * ux + ONE)


def test_affine_slope_only_at_degree_one():
    u, ux, b = Poly.gen(jet(0)), Poly.gen(jet(1)), Poly.gen(param("b"))
    half = Poly.const(Fraction(1, 2))
    assert (u * ux * half + b).affine_slope(jet(1)) == u * half
    assert (u * ux * half + b).affine_slope(jet(0)) == ux * half
    # degree 2 in the generator, even beside a degree-1 term, and degree 0
    assert (ux ** 2 + u * ux).affine_slope(jet(1)) is None
    assert (u * ux ** 2).affine_slope(jet(1)) is None
    assert (u + b).affine_slope(jet(1)) is None
    assert ZERO.affine_slope(jet(1)) is None
    # the slope is canonical: 2u*u_x/3 + b has slope 2u/3, over 3 alone
    slope = (u * ux * Poly.const(Fraction(2, 3)) + b).affine_slope(jet(1))
    assert slope.terms == {jet(0).bit: 2} and slope.den == 3


def test_antiderivative_term_by_term():
    u, ux, b = Poly.gen(jet(0)), Poly.gen(jet(1)), Poly.gen(param("b"))
    third = Poly.const(Fraction(1, 3))
    assert (u ** 2 + b).antiderivative(jet(0)) == u ** 3 * third + b * u
    assert (u * ux).antiderivative(jet(1)) == u * ux ** 2 * Poly.const(Fraction(1, 2))
    assert ONE.antiderivative(X) == Poly.gen(X)
    assert ZERO.antiderivative(X) == ZERO
    # over the lcm 6 of the new exponents 2 and 3: (9u^2 + 4u^3)/6
    p = (Poly.const(3) * u + Poly.const(2) * u ** 2).antiderivative(jet(0))
    assert p == u ** 2 * Poly.const(Fraction(3, 2)) + u ** 3 * Poly.const(Fraction(2, 3))
    assert p.den == 6 and set(p.terms.values()) == {9, 4}


def test_an_antiderivative_past_max_exponent_is_an_overflow():
    u, ux = Poly.gen(jet(0)), Poly.gen(jet(1))
    p = u ** MAX_EXPONENT * ux + ux
    # in u_x the exponent of u stays at MAX_EXPONENT
    assert len(_to_univariate(p.antiderivative(jet(1)), jet(0))) == MAX_EXPONENT + 1
    assert p.antiderivative(jet(1)).affine_slope(jet(0)) is None
    with pytest.raises(ExponentOverflow, match=f"exponent of u exceeds {MAX_EXPONENT}"):
        p.antiderivative(jet(0))
    assert (u ** (MAX_EXPONENT - 1)).antiderivative(jet(0)) == \
        u ** MAX_EXPONENT * Poly.const(Fraction(1, MAX_EXPONENT))


def test_squarefree_factors_of_a_monomial():
    # read off the exponents, not found by one Yun step per unit of them
    u, b = Poly.gen(jet(0)), Poly.gen(param("b"))
    assert squarefree_factors(u ** 30000 * b ** 2) == ((u, 30000, True), (b, 2, True))
    assert squarefree_factors((u ** 3).scale(-6)) == ((u, 3, True),)
