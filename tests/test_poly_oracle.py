"""Differential test of the polynomial layer against sympy.

Seeded random polynomials over Q in x, u..u_xxx, b, c, ln(u+c) and f(u) are
converted to sympy's sparse polynomial ring over QQ through ``Poly.items``
(never through the DSL).  The ring operations, ``content``, partial
derivatives, ``split``, the in-place sums of ``PolySum``, the affine slope
and term-wise antiderivative, ``div_exact`` and ``poly_gcd`` are recomputed
there.  Values are compared through the
conversion, and the canonical form by structural equality with a Poly
rebuilt one term at a time from sympy's answer.  ``div_exact`` also runs on
divisors of set shapes (monomials, non-unit leading coefficients, products
of the reduction oracle's factors, gamma among them), and mutants of its
fail-fast tests must fail that oracle.
"""

import inspect
import random
import textwrap
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

import jetcalc.poly as poly_module  # noqa: E402
from jetcalc import ExponentOverflow  # noqa: E402
from jetcalc.poly import (  # noqa: E402
    MAX_EXPONENT,
    ONE,
    X,
    ZERO,
    Poly,
    PolySum,
    _d,
    div_exact,
    fnsym,
    jet,
    mono_factors,
    param,
    poly_gcd,
)
from test_poly import _assert_canonical  # noqa: E402
from test_reduce_oracle import CERTIFIED, UNCERTIFIED  # noqa: E402

GENS = (X, jet(0), jet(1), jet(2), jet(3), param("b"), param("c"), fnsym("lnuc", 0),
        fnsym("f", 0))
# gamma enters only through the divisors of the reduction oracle's pools
RING_GENS = GENS + (param("gamma"),)
INDEX = {g: i for i, g in enumerate(RING_GENS)}
R, *SYMS = sympy.ring("x,u0:4,b,c,L,f,gamma", sympy.QQ)
RZ = R.clone(domain=sympy.ZZ)


def _exps(mono) -> tuple:
    exps = [0] * len(RING_GENS)
    for g, e in mono:
        exps[INDEX[g]] = e
    return tuple(exps)


def _to_ring(p: Poly):
    return R.from_dict({_exps(m): sympy.QQ(c.numerator, c.denominator) for m, c in p.items()})


def _from_ring(s) -> Poly:
    total = ZERO
    for exps, c in s.items():
        term = Poly.const(Fraction(int(c.numerator), int(c.denominator)))
        for g, e in zip(RING_GENS, exps):
            if e:
                term = term * Poly.gen(g) ** e
        total = total + term
    return total


def _check(p: Poly, s, *context):
    assert _to_ring(p) == s, context
    ref = _from_ring(s)
    assert p == ref and hash(p) == hash(ref), context


def _random_poly(rng: random.Random, max_terms=4, max_factors=2, max_exp=2, gens=GENS) -> Poly:
    total = ZERO
    for _ in range(rng.randint(1, max_terms)):
        term = Poly.const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 6)),
                                   rng.choice((1, 1, 2, 3, 4))))
        for _ in range(rng.randint(0, max_factors)):
            term = term * Poly.gen(rng.choice(gens)) ** rng.randint(1, max_exp)
        total = total + term
    return total


def _random_nonzero(rng: random.Random, **kw) -> Poly:
    p = _random_poly(rng, **kw)
    while p.is_zero():
        p = _random_poly(rng, **kw)
    return p


def _random_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-6, -2, -1, 0, 1, 2, 3)), rng.choice((1, 1, 2, 3, 4)))


def test_ring_operations_match_sympy():
    rng = random.Random(701)
    for case in range(300):
        a, b = _random_poly(rng), _random_poly(rng)
        sa, sb = _to_ring(a), _to_ring(b)
        _check(a + b, sa + sb, case, a, b)
        _check(a - b, sa - sb, case, a, b)
        _check(-a, -sa, case, a)
        _check(a * b, sa * sb, case, a, b)
        n = rng.randint(0, 3)
        _check(a ** n, sa ** n, case, a, n)
        c = _random_scalar(rng)
        _check(a.scale(c), sa * sympy.QQ(c.numerator, c.denominator), case, a, c)
        k = rng.choice((-2, -1, 0, 1, 3))
        _check(a.scale(k), sa * k, case, a, k)


def test_content_matches_sympy():
    rng = random.Random(702)
    for case in range(300):
        p = _random_nonzero(rng)
        den, cleared = _to_ring(p).clear_denoms()
        expected = Fraction(int(cleared.set_ring(RZ).content()), int(den))
        assert p.content() == expected, (case, p)
        primitive = p.scale(1 / expected)
        coeffs = [c for _, c in primitive.items()]
        assert all(c.denominator == 1 for c in coeffs), (case, p)
        assert _to_ring(primitive).set_ring(RZ).content() == 1, (case, p)


def test_partials_match_sympy():
    # a partial derivative is the derivation with the one image (g, 1)
    rng = random.Random(703)
    for case in range(300):
        p = _random_poly(rng, max_exp=3)
        s = _to_ring(p)
        for g in rng.sample(GENS, rng.randint(1, 4)):
            _check(_d(p, g), s.diff(SYMS[INDEX[g]]), case, p, g)


def _accumulator_oracle(cases) -> list:
    """The cases in which a PolySum disagrees with sympy or is not canonical.

    Each case adds rational multiples of Polys over mixed denominators, then
    a derivation with 1 to 4 images, themselves over mixed denominators,
    and checks the value after each step: against the sum of the c_k * p_k
    expanded in sympy's ring, then with sum(diff(p, g) * image) added."""
    rng = random.Random(710)
    failures = []
    for case in range(cases):
        acc = PolySum()
        expected = R.zero
        for _ in range(rng.randint(1, 5)):
            p, c = _random_poly(rng), _random_scalar(rng)
            acc.add(p, c.numerator, c.denominator)
            expected += _to_ring(p) * sympy.QQ(c.numerator, c.denominator)
        steps = [("add", acc.value(), expected)]
        acc = PolySum()
        acc.add(_from_ring(expected))
        p = _random_poly(rng, max_exp=3)
        pairs = [(g, _random_poly(rng, max_terms=3)) for g in rng.sample(GENS, rng.randint(1, 4))]
        acc.add_derivation(p, pairs)
        s = _to_ring(p)
        for g, img in pairs:
            expected += s.diff(SYMS[INDEX[g]]) * _to_ring(img)
        steps.append(("add_derivation", acc.value(), expected))
        try:
            for name, result, expected_s in steps:
                _assert_canonical(result)
                _check(result, expected_s, case, name, p, pairs)
        except AssertionError:
            failures.append(case)
    return failures


def test_poly_sum_matches_sympy():
    assert _accumulator_oracle(300) == []


def test_poly_sum_oracle_catches_an_unnormalized_value(monkeypatch):
    # a mutant of PolySum.value that keeps the running denominator as it is
    src = textwrap.dedent(inspect.getsource(PolySum.value))
    mutant = src.replace("_normalized(terms, self.den)", "Poly(terms, self.den)")
    assert mutant != src
    namespace = dict(vars(poly_module))
    exec(mutant, namespace)
    monkeypatch.setattr(PolySum, "value", namespace["value"])
    assert len(_accumulator_oracle(100)) > 20


def test_a_derivation_past_max_exponent_is_an_overflow():
    u, ux = Poly.gen(jet(0)), Poly.gen(jet(1))
    p = u ** MAX_EXPONENT * ux
    # d/du keeps u at MAX_EXPONENT, and so does d/du_x with an image free of u
    acc = PolySum()
    acc.add_derivation(p, ((jet(0), u), (jet(1), ux)))
    _check(acc.value(), _to_ring(p) * (MAX_EXPONENT + 1))
    # the image u of u_x raises the exponent of u past MAX_EXPONENT
    with pytest.raises(ExponentOverflow, match=f"exponent of u exceeds {MAX_EXPONENT}"):
        PolySum().add_derivation(p, ((jet(1), u),))


def _kernel_oracle(cases: int) -> tuple[list, int]:
    """(failing cases, degree-1 checks) of ``Poly.affine_slope`` and
    ``Poly.antiderivative`` against sympy.  In each generator v the
    slope must be None unless sympy finds degree 1 in v, and then be the
    derivative in v; the antiderivative A must be canonical, with dA/dv = p
    and A = 0 at v = 0."""
    rng = random.Random(720)
    failures = []
    affine = 0
    for case in range(cases):
        p = _random_poly(rng, max_exp=3)
        s = _to_ring(p)
        try:
            for g in GENS:
                v = SYMS[INDEX[g]]
                slope = p.affine_slope(g)
                if s.degree(v) == 1:
                    affine += 1
                    assert slope is not None, (case, p, g)
                    _assert_canonical(slope)
                    _check(slope, s.diff(v), case, p, g)
                else:
                    assert slope is None, (case, p, g)
                A = p.antiderivative(g)
                _assert_canonical(A)
                a = _to_ring(A)
                assert a.diff(v) == s and a.subs(v, 0) == 0, (case, p, g)
        except AssertionError:
            failures.append(case)
    return failures, affine


def test_affine_slope_and_antiderivative_match_sympy():
    failures, affine = _kernel_oracle(300)
    assert failures == []
    assert affine > 150


def test_kernel_oracle_catches_a_slope_at_degree_two(monkeypatch):
    # a mutant of affine_slope that accepts degree 2 and keeps its slope terms
    src = textwrap.dedent(inspect.getsource(Poly.affine_slope))
    mutant = src.replace("if e > 1:", "if e > 2:")
    assert mutant != src
    namespace = dict(vars(poly_module))
    exec(mutant, namespace)
    monkeypatch.setattr(Poly, "affine_slope", namespace["affine_slope"])
    assert len(_kernel_oracle(100)[0]) > 20


def test_split_matches_sympy():
    rng = random.Random(704)
    for case in range(300):
        p = _random_poly(rng, max_factors=3)
        gens = set(rng.sample(GENS, rng.randint(0, 4)))
        idx = {INDEX[g] for g in gens}
        grouped: dict = {}
        for exps, c in _to_ring(p).items():
            outer = tuple(e if i in idx else 0 for i, e in enumerate(exps))
            inner = tuple(0 if i in idx else e for i, e in enumerate(exps))
            grouped.setdefault(outer, {})[inner] = c
        parts = p.split(gens)
        assert sorted(_exps(mono_factors(m)) for m in parts) == sorted(grouped), (case, p, gens)
        for outer, inner in parts.items():
            _check(inner, R.from_dict(grouped[_exps(mono_factors(outer))]), case, p, gens)


def _main_gen(p: Poly):
    # the divisor's largest-key generator: a dividend of lower degree in it
    # cannot be a multiple of the divisor
    return max(p.generators(), key=lambda g: g.key)


def _degree(p: Poly, v) -> int:
    """The degree of p in v, the largest exponent of v in its terms."""
    return max((dict(mono_factors(m)).get(v, 0) for m in p.terms), default=0)


def _check_division(a: Poly, b: Poly, *context, divide=div_exact) -> bool:
    q_s, r_s = _to_ring(a).div(_to_ring(b))
    q = divide(a, b)
    if r_s:
        assert q is None, context
        return False
    assert q is not None, context
    _check(q, q_s, *context)
    return True


def test_div_exact_matches_sympy():
    rng = random.Random(705)
    exact = 0
    for case in range(400):
        b = _random_nonzero(rng, max_terms=3)
        if rng.random() < 0.5:
            a = b * _random_poly(rng, max_terms=3)
        else:
            a = _random_poly(rng)
        exact += _check_division(a, b, case, a, b)
    assert 150 < exact < 400


def test_div_exact_low_degree_dividend_matches_sympy():
    # the dividend's degree in the divisor's main variable v is below the
    # divisor's, so no quotient degree exists and the division must fail
    rng = random.Random(707)
    for case in range(200):
        b = _random_nonzero(rng, max_terms=3, max_exp=3)
        while b.is_const():
            b = _random_nonzero(rng, max_terms=3, max_exp=3)
        v = _main_gen(b)
        rest = tuple(g for g in GENS if g is not v)
        a = ZERO
        for k in range(_degree(b, v)):
            a = a + _random_poly(rng, max_terms=2, gens=rest) * Poly.gen(v) ** k
        if a.is_zero():
            continue
        assert not _check_division(a, b, case, a, b)


def test_div_exact_gapped_dividend_matches_sympy():
    # divisor and quotient p0 + p_d v^d with d >= 2, so the dividend has zero
    # coefficients between nonzero powers of the divisor's main variable v
    rng = random.Random(708)
    exact = 0
    for case in range(200):
        v = rng.choice(GENS[1:])
        rest = tuple(g for g in GENS if g.key < v.key)
        if not rest:
            continue

        def gapped():
            low = _random_nonzero(rng, max_terms=2, gens=rest)
            high = _random_nonzero(rng, max_terms=2, gens=rest)
            return low + high * Poly.gen(v) ** rng.randint(2, 3)

        b = gapped()
        a = b * gapped()
        if rng.random() < 0.5:
            a = a + _random_nonzero(rng, max_terms=1, gens=rest) * Poly.gen(v)
        assert _main_gen(b) is v and _degree(b, v) >= 2, (case, b)
        exact += _check_division(a, b, case, a, b)
    assert 50 < exact < 200


def _division_divisor(rng: random.Random, case: int) -> Poly:
    """A divisor of one of the shapes the division oracle cycles through."""
    x, u, ux, b, c, gamma = (Poly.gen(g) for g in (X, jet(0), jet(1), param("b"), param("c"),
                                                   param("gamma")))
    shape = case % 4
    if shape == 0:      # a monomial
        return rng.choice((gamma ** rng.randint(1, 3), u * u * b, u ** 3, Poly.const(-2)))
    if shape == 1:
        # a leading coefficient in the packed order (lex in field order) that
        # is negative or not a unit; for all but the first, whichever of
        # their generators owns the higher field
        return rng.choice((u.scale(-2) + c, (c * u * u).scale(3) + ONE, u.scale(2) + c.scale(3),
                           ux.scale(2) + (b * u).scale(3), (gamma * u).scale(-3) + x.scale(2)))
    if shape == 2:      # three generators, products of the reduction pools
        while True:
            d = ONE
            for q in rng.sample(CERTIFIED + UNCERTIFIED, rng.randint(1, 2)):
                d = d * q
            if len(d.generators()) == 3:
                return d
    return _random_nonzero(rng, max_terms=3, gens=RING_GENS)


def _division_oracle(cases: int, divide=div_exact) -> list:
    """The cases in which ``divide`` disagrees with sympy's ``div``.

    Each case divides b * q, or b * q + r, by a divisor b of one of four
    shapes, over denominators other than 1 in half of the cases without an
    r or with a random one."""
    rng = random.Random(711)
    failures = []
    for case in range(cases):
        b = _division_divisor(rng, case)
        q = _random_nonzero(rng, max_terms=3, gens=RING_GENS)
        kind = case % 8
        if kind in (4, 5):
            # r = LM(b) * t, LM in the packed order: the leading-monomial test
            # passes it, and with integer operands its coefficient 1 is left
            # to the integer-remainder test when lc(b) is not a unit
            t = _random_nonzero(rng, max_terms=1, gens=RING_GENS)
            q, r = Poly(q.terms), Poly({max(b.terms) + m: 1 for m in t.terms})
        else:
            if rng.random() < 0.5:
                b = b.scale(Fraction(rng.choice((-3, 1, 2, 5)), rng.choice((2, 3, 4))))
                q = q.scale(Fraction(rng.choice((-1, 1, 7)), rng.choice((3, 5))))
            r = _random_nonzero(rng, max_terms=2, gens=RING_GENS) if kind >= 6 else ZERO
        a = b * q + r
        try:
            _check_division(a, b, case, a, b, divide=divide)
        except (AssertionError, ExponentOverflow):
            failures.append(case)
    return failures


def test_division_shapes_match_sympy():
    assert _division_oracle(400) == []


def _div_exact_without(test: str):
    """A mutant of div_exact that never takes ``if <test>:``.  Its namespace
    copies the guard bits, so build it after interning every generator it
    will meet."""
    src = textwrap.dedent(inspect.getsource(div_exact))
    mutant = src.replace(f"if {test}:", "if False:")
    assert mutant != src
    namespace = dict(vars(poly_module))
    exec(mutant, namespace)
    return namespace["div_exact"]


@pytest.mark.parametrize("test", [
    "((m | guards) - lm) & guards != guards",     # the leading-monomial test
    "r",                                         # the integer-remainder test
], ids=["leading-monomial", "integer-remainder"])
def test_division_oracle_catches_a_kernel_without_a_test(test):
    assert len(_division_oracle(400, _div_exact_without(test))) > 10


def test_a_division_past_max_exponent_is_an_overflow():
    # two fresh parameters: the later one owns the higher field, so it leads
    # hi + lo^2 in the packed order, and each step of hi^20000 / (hi + lo^2)
    # raises the exponent of lo in the remainder by 2
    lo, hi = param("div_overflow_lo"), param("div_overflow_hi")
    assert lo.shift < hi.shift
    a, b = Poly.gen(hi) ** 20000, Poly.gen(hi) + Poly.gen(lo) ** 2
    with pytest.raises(ExponentOverflow, match=f"exponent of div_overflow_lo exceeds {MAX_EXPONENT}"):
        div_exact(a, b)
    # without the guard check the exponent of lo runs to 40000 and the
    # division fails without an error
    assert _div_exact_without("(t + top) & guards")(a, b) is None


def _check_gcd(a: Poly, b: Poly, *context) -> Poly:
    # sympy's gcd over QQ is monic, the engine's is primitive with a
    # positive leading coefficient, so the two agree up to a rational unit
    h = poly_gcd(a, b)
    assert _to_ring(h).monic() == _to_ring(a).gcd(_to_ring(b)).monic(), context
    assert h.content() == 1 and h.leading()[1] > 0, context
    return h


def test_poly_gcd_matches_sympy():
    # planted common factors
    rng = random.Random(706)
    nontrivial = 0
    for case in range(1500):
        g = _random_nonzero(rng, max_terms=3)
        a = g * _random_nonzero(rng, max_terms=3)
        b = g * _random_nonzero(rng, max_terms=3) if rng.random() < 0.9 else ZERO
        h = _check_gcd(a, b, case, a, b)
        assert div_exact(a, h) is not None, (case, a, b, h)
        nontrivial += h != ONE
    assert nontrivial > 1000


def test_poly_gcd_planted_shapes_match_sympy():
    # operands over disjoint generator sets, with a common monomial factor,
    # single terms, and equal operands up to a rational unit
    rng = random.Random(709)
    for case in range(300):
        split = rng.randint(1, len(GENS) - 1)
        left, right = GENS[:split], GENS[split:]
        a = _random_nonzero(rng, max_terms=3, gens=left)
        b = _random_nonzero(rng, max_terms=3, gens=right)
        assert _check_gcd(a, b, case, "disjoint", a, b) == ONE

        mono = Poly.const(1)
        for _ in range(rng.randint(1, 3)):
            mono = mono * Poly.gen(rng.choice(GENS)) ** rng.randint(1, 3)
        g = _random_nonzero(rng, max_terms=2)
        a = mono * g * _random_nonzero(rng, max_terms=3)
        b = mono * _random_nonzero(rng, max_terms=3, max_factors=3)
        h = _check_gcd(a, b, case, "monomial", a, b)
        assert div_exact(h, mono) is not None, (case, a, b, h)

        term = _random_nonzero(rng, max_terms=1, max_factors=3)
        _check_gcd(term, a, case, "single term", term, a)
        _check_gcd(a, term, case, "single term", a, term)

        c = _random_scalar(rng) or Fraction(-1)
        _check_gcd(a, a, case, "equal", a)
        assert _check_gcd(a, a.scale(c), case, "unit multiple", a, c) == poly_gcd(a, ZERO)


def test_poly_gcd_of_a_long_remainder_sequence():
    # the pseudo-remainder sequence in u of the two u_x-coefficients of a
    # runs through coefficients of degree 40 in c; kept with their integer
    # contents, those grew about 2.4 times in bit length per step and this
    # gcd did not finish in a minute
    x, u, ux, uxx, b, c = (Poly.gen(g) for g in (X, jet(0), jet(1), jet(2), param("b"),
                                                 param("c")))
    terms = ((8, u ** 5 * ux * c ** 2), (20, u ** 3 * c ** 5), (4, u ** 3 * ux * c ** 3),
             (12, u * c ** 6), (-36, u ** 4 * c ** 2), (-20, u ** 2 * c ** 3),
             (2, u ** 3 * ux), (8, u * c ** 3), (-2, u * ux * c), (-12, u ** 2), (4, c))
    a = ZERO
    for k, m in terms:
        a = a + m.scale(k)
    q = c * c * u * u + ONE
    for k in range(1, 5):
        assert _check_gcd(a, q ** k, k) == ONE
        assert _check_gcd(a * q, q ** k, k) == q
    # an operand free of a generator of the other: the gcd divides every
    # coefficient in that generator, so it is folded through them
    p = u * u * b * b + ux * ux + ONE
    a = (x ** 4 - (u * u * b * b).scale(Fraction(1, 6))) * uxx + x * u * c + ux ** 3
    assert _check_gcd(a, p ** 3) == ONE
    assert _check_gcd(a * p, p ** 3) == p
