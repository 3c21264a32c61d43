import random
from fractions import Fraction

import pytest

from jetcalc import (
    DivisionByZero,
    FunctionSpec,
    InconsistentJetSubstitution,
    NotAPointFunction,
    gke,
)
from jetcalc.expr import (
    JetExpr,
    as_expr,
    fn,
    par,
    partial,
    partial_u_total,
    specialize_f,
    substitute,
    substitute_map,
    t,
    u,
    x,
)
from jetcalc.analysis import formal_symmetry_scan
from jetcalc.calculus import total_x
from jetcalc.dsl import parse
import jetcalc.poly as poly_module
from jetcalc.poly import ONE, Poly, fnsym, jet, param, poly_gcd, squarefree_factors

from conftest import gen_pool, random_expr


def test_like_term_collection():
    assert u(1) + u(1) == 2 * u(1)


def test_polynomial_cancellation():
    e = (u(0) ** 2 - u(1) ** 2) / (u(0) - u(1))
    assert e == u(0) + u(1)


def test_total_x_identity_normalizes_to_zero():
    assert (total_x(u(0) ** 2) - 2 * u(0) * u(1)).is_zero


def test_normalize_idempotent():
    e = (u(0) + 1) ** 3 / (3 * u(0) + 3)
    # re-reducing a canonical pair, or re-wrapping it, changes nothing
    assert JetExpr._reduce(e.num, e.den) == e
    assert as_expr(e) is e
    assert e == u(0) ** 2 / 3 + 2 * u(0) / 3 + Fraction(1, 3)


def test_division_by_zero_detected():
    with pytest.raises(DivisionByZero):
        u(0) / (u(0) - u(0))
    with pytest.raises(DivisionByZero):
        u(0) / (total_x(u(0) ** 2) - 2 * u(0) * u(1))


def test_partial_basic():
    assert partial(u(2) ** 2 / 2, jet(2)) == u(2)
    assert partial(fn("f") * u(1), fnsym("f", 0)) == u(1)
    assert partial(x() * u(0), param("b")) == as_expr(0)
    assert partial(x() * u(0), jet(0)) == x()
    # t-partial of a t-free expression
    from jetcalc.poly import T
    assert partial(x() * u(0), T).is_zero


def test_partial_quotient():
    c = par("c")
    e = 1 / (u(0) + c)
    assert partial(e, jet(0)) == -1 / (u(0) + c) ** 2


def test_partial_u_total_chain():
    assert partial_u_total(fn("f")) == fn("f", 1)
    assert partial_u_total(u(0) * fn("f", 1)) == fn("f", 1) + u(0) * fn("f", 2)
    assert partial_u_total(u(0) ** 3) == 3 * u(0) ** 2
    assert partial_u_total(fn("rhat")) == fn("r")
    assert partial_u_total(fn("r")) == fn("f")


def test_fn_knows_only_the_chain():
    assert fn("f", -1) == fn("r") and fn("f", -2) == fn("rhat")
    with pytest.raises(ValueError, match="unknown function symbol 'g'"):
        fn("g")
    with pytest.raises(ValueError, match="depth -3"):
        fn("rhat", -1)


def test_partial_u_total_rejects_jets():
    with pytest.raises(NotAPointFunction):
        partial_u_total(u(1) * fn("f"))
    # the message spells the jet as the input syntax does
    with pytest.raises(NotAPointFunction, match="^expression depends on u_x$"):
        partial_u_total(u(1))


def test_substitute_simple():
    e = u(0) ** 2 + u(1)
    got = substitute(e, jet(0), u(0) + 1)
    assert got == u(0) ** 2 + 2 * u(0) + 1 + u(1)


def test_substitute_quadratic_shift():
    # completing the square removes the linear coefficient
    p0, p1, p2 = par("p0"), par("p1"), par("p2")
    f = p2 * u(0) ** 2 + p1 * u(0) + p0
    got = substitute(f, jet(0), u(0) - p1 / (2 * p2))
    assert got == p2 * u(0) ** 2 + (p0 - p1 ** 2 / (4 * p2))


def test_substitute_x_leaves_jets_alone():
    assert substitute(u(1), __import__("jetcalc.poly", fromlist=["X"]).X, x()) == u(1)


def test_substitute_jets_differentially():
    # replacing u rewrites u_x as D_x of the image
    e = u(1) ** 2
    got = substitute(e, jet(0), u(0) ** 2)
    assert got == (2 * u(0) * u(1)) ** 2


def test_substitute_inconsistent_jet():
    with pytest.raises(InconsistentJetSubstitution):
        substitute(u(1) + u(2), jet(1), u(0))


def test_specialize_linear():
    lin = FunctionSpec.linear()
    assert specialize_f(fn("f", 1) * u(1), lin) == par("alpha") * u(1)
    assert specialize_f(fn("f"), lin) == par("alpha") * u(0) + par("beta")


def test_specialize_quadratic_kills_high_derivatives():
    quad = FunctionSpec.quadratic()
    assert specialize_f(fn("f", 3), quad).is_zero
    assert specialize_f(fn("f", 2), quad) == as_expr(2)
    assert specialize_f(fn("r"), quad) == u(0) ** 3 / 3
    assert specialize_f(fn("rhat"), quad) == u(0) ** 4 / 12


def test_specialize_log_shift():
    log = FunctionSpec.log_shift()
    gamma, c = par("gamma"), par("c")
    assert specialize_f(fn("f", 1), log) == gamma / (u(0) + c)
    assert specialize_f(fn("f", 2), log) == -gamma / (u(0) + c) ** 2
    # gamma/(u+c) * (u+c) - gamma == 0
    e = fn("f", 1) * (u(0) + c) - gamma
    assert specialize_f(e, log).is_zero


def _count_reductions(monkeypatch) -> list:
    """Patch a counter onto JetExpr._reduce; the list grows by one per call."""
    calls = []
    reduce = JetExpr._reduce

    def counting_reduce(num, den):
        calls.append(den)
        return reduce(num, den)

    monkeypatch.setattr(JetExpr, "_reduce", staticmethod(counting_reduce))
    return calls


def test_reduce_over_certified_factors_splits_no_divisor(monkeypatch):
    # over (u+c)^3 * gamma^2 every cancellation is a trial division by u+c or
    # gamma, which runs on packed monomials and splits no polynomial into
    # coefficients in one generator; the unit that makes the cancelled
    # denominator canonical is memoized, so a second pass over the same
    # denominators computes no leading term
    uc, gamma = u(0).num + par("c").num, par("gamma").num
    den = uc ** 3 * gamma ** 2
    squarefree_factors(den)     # the factorization itself splits; memoized
    rng = random.Random(31)
    nums = []
    for _ in range(40):
        base = random_expr(rng, pool=[u(0), u(1), par("b"), par("c"), par("gamma")]).num
        nums.append(uc ** rng.randint(0, 4) * gamma ** rng.randint(0, 3) * base)

    def refuse(*args):
        raise AssertionError("a coefficient split in a trial division")

    monkeypatch.setattr(poly_module, "_to_univariate", refuse)
    first = [JetExpr._reduce(n, den) for n in nums]
    for n, e in zip(nums, first):
        assert e.num * den == n * e.den, n
    assert len({e.den for e in first}) > 5
    calls = []
    leading = Poly.leading

    def counting_leading(self):
        calls.append(self)
        return leading(self)

    monkeypatch.setattr(Poly, "leading", counting_leading)
    assert [JetExpr._reduce(n, den) for n in nums] == first
    assert calls == []


def test_a_rational_constant_factor_or_divisor_keeps_the_denominator(monkeypatch):
    e = u(1) / (u(0) + par("c")) ** 2
    scaled = (3 * u(1)) / (2 * (u(0) + par("c")) ** 2)
    halved = u(1) / (3 * (u(0) + par("c")) ** 2)
    calls = _count_reductions(monkeypatch)
    assert e * Fraction(3, 2) == scaled
    assert Fraction(3, 2) * e == scaled
    # a JetExpr constant on the left, as a_i in a * JetExpr.sum(...)
    assert as_expr(Fraction(3, 2)) * e == scaled
    assert e / 3 == halved
    assert e / as_expr(3) == halved
    assert calls == []


@pytest.mark.parametrize("lone", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sum_reduces_once_per_group_and_once_per_merge(monkeypatch, d, lone):
    uc = u(0) + par("c")
    # two or three terms over each of d distinct denominators, or one; no
    # group and no partial sum vanishes
    groups = [[u(0) / uc, par("b") / uc, Fraction(1, 2) / uc],
              [u(1) / uc ** 2, x() / uc ** 2],
              [u(0), Fraction(5), u(1) ** 2],
              [par("b") / (u(0) ** 2 + 1), u(1) / (u(0) ** 2 + 1)]][:d]
    terms = [term for group in groups for term in (group[:1] if lone else group)]
    random.Random(d).shuffle(terms)
    expected = as_expr(0)
    for term in terms:
        expected = expected + term
    calls = _count_reductions(monkeypatch)
    assert JetExpr.sum(terms) == expected
    # a lone term is reduced already, and so is the sum over 1 of the third
    # group: each other group reduces once, and the d - 1 merges reduce
    rational = d - (d >= 3)
    assert len(calls) == (d - 1 if lone else rational + d - 1)


@pytest.mark.parametrize("spec, f6_f3", [
    # gamma * d^6/du^6 ln(u+c) times gamma * d^3/du^3 ln(u+c)
    (FunctionSpec.log_shift(), -120 * par("gamma") / (u(0) + par("c")) ** 6
     * 2 * par("gamma") / (u(0) + par("c")) ** 3),
    (FunctionSpec.polynomial([0, 0, 0, 1]), as_expr(0)),
])
def test_specialize_derives_each_depth_once(monkeypatch, spec, f6_f3):
    import jetcalc.expr as expr_module

    derive = expr_module.derive
    calls = []

    def counting_derive(e, image):
        calls.append(e)
        return derive(e, image)

    monkeypatch.setattr(expr_module, "derive", counting_derive)
    expr_module._chain_image.cache_clear()
    e = parse("df^6*f'''(u) + rhat(u)")
    got = specialize_f(e, spec)
    # f', ..., f^(6) once each; f''' is on the way to f^(6)
    assert len(calls) == 6
    assert got == f6_f3 + spec.f_image(-2)
    # the images are memoized per spec and depth: a second call derives none
    assert specialize_f(e, spec) == got
    assert len(calls) == 6


def _count_products(monkeypatch) -> list:
    """Record each JetExpr product as True when a factor is rational, not
    polynomial; the engine still computes them."""
    calls = []
    original = JetExpr.__mul__

    def counted(self, other):
        calls.append(self.den != ONE or as_expr(other).den != ONE)
        return original(self, other)

    monkeypatch.setattr(JetExpr, "__mul__", counted)
    return calls


def _rational_expr(rng: random.Random) -> JetExpr:
    """A random expression over one of a few denominators, some shared."""
    den = rng.choice((u(0) + par("c"), (u(0) + par("c")) ** 2, u(1) ** 2 + 1, par("b") * u(0)))
    return random_expr(rng, max_terms=2) / den


def test_combination_of_products_matches_the_sum_of_the_products(monkeypatch):
    # sum(c * a * b): a product of two polynomials is folded into the sum
    # without a JetExpr product, one with a rational factor is a * b
    rng = random.Random(735)
    for case in range(200):
        rational = case % 2
        triples = []
        for _ in range(rng.randint(1, 6)):
            c = Fraction(rng.choice((-3, -1, 0, 1, 2)), rng.choice((1, 2, 3)))
            a, b = random_expr(rng), random_expr(rng)
            if rational and rng.random() < 0.5:
                a = _rational_expr(rng)
            if rng.random() < 0.2:
                b = a * -1  # products that cancel between terms
            triples.append((c, a, b))
        want = JetExpr.sum(c * a * b for c, a, b in triples)
        with monkeypatch.context() as m:
            calls = _count_products(m)
            got = JetExpr.combination(triples)
        assert got == want, (case, triples)
        fallback = sum(1 for c, a, b in triples if c and a.den != ONE)
        assert calls == [True] * fallback, (case, calls)


def _evaluate_reference(p: Poly, mapping: dict) -> JetExpr:
    """p with its generators replaced, term by term in JetExpr arithmetic."""
    total = as_expr(0)
    for mono, c in p.items():
        term = as_expr(c)
        for g, e in mono:
            term = term * mapping.get(g, JetExpr.from_gen(g)) ** e
        total = total + term
    return total


def test_substitute_map_with_polynomial_images_matches_the_expression_route(monkeypatch):
    # the parts of e over the replaced generators times their power
    # products: with polynomial images no product has a rational factor
    rng = random.Random(736)
    pool = gen_pool()
    gens = [g for e in pool for g in e.generators()]
    for case in range(200):
        e = random_expr(rng, max_terms=4, max_factors=3)
        if case % 3 == 0:
            e = e / rng.choice((u(0) * fn("f") + 1, u(1) ** 2 + par("b") * u(0), x() - t()))
        mapping = {g: random_expr(rng) for g in rng.sample(gens, rng.randint(1, 3))}
        polynomial = case % 4 != 1
        if not polynomial:
            mapping[rng.choice(list(mapping))] = _rational_expr(rng)
        relevant = {g: v for g, v in mapping.items() if g in e.generators()}
        want = (_evaluate_reference(e.num, relevant) / _evaluate_reference(e.den, relevant)
                if relevant else e)
        with monkeypatch.context() as m:
            calls = _count_products(m)
            got = substitute_map(e, mapping)
        assert got == want, (case, e, mapping)
        if polynomial:
            assert not any(calls), (case, calls)


def test_is_zero_examples():
    assert (u(0) * u(1) - u(1) * u(0)).is_zero
    assert not (fn("f", 1) * u(0) - fn("f")).is_zero


def test_canonical_soundness_shuffled_rebuild():
    # same formal sum/product rebuilt under random association and order
    rng = random.Random(20240811)
    pool = gen_pool()
    for _ in range(1000):
        n = rng.randint(2, 5)
        terms = []
        for _ in range(n):
            c = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
            factors = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            terms.append((c, factors))

        def build(order):
            total = as_expr(0)
            for i in order:
                c, factors = terms[i]
                fs = list(factors)
                rng.shuffle(fs)
                prod = as_expr(c)
                for f in fs:
                    prod = prod * f
                total = total + prod
            return total

        a = build(list(range(n)))
        order2 = list(range(n))
        rng.shuffle(order2)
        b = build(order2)
        assert a == b


def test_log_scan_builds_only_canonical_expressions(monkeypatch):
    # Theorem 3's scan on f = gamma*ln(u+c) + delta meets (u+c)^k denominators
    # throughout; a trial division that missed a factor of one would leave a
    # common factor behind, and structural equality would no longer be equality.
    # A fresh equation, so that no cache filled by another test hides the work
    eq = gke(FunctionSpec.log_shift())
    pairs = set()
    init = JetExpr.__init__

    def recording_init(self, num, den):
        init(self, num, den)
        pairs.add((num, den))

    monkeypatch.setattr(JetExpr, "__init__", recording_init)
    formal_symmetry_scan(eq, 13)
    monkeypatch.undo()
    rational = [(num, den) for num, den in pairs if den != ONE]
    assert len(rational) > 100
    for num, den in pairs:
        assert not den.is_const() or den == ONE, (num, den)
        assert poly_gcd(num, den).is_const(), (num, den)
        assert den.den == 1 and den.content() == 1, (num, den)
        assert den.leading()[1] > 0, (num, den)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(300):
        a = random_expr(rng)
        b = random_expr(rng)
        c = random_expr(rng)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_partial_commutes_randomized():
    rng = random.Random(11)
    gens = [jet(0), jet(1), jet(2), param("b"), fnsym("f", 0)]
    for _ in range(300):
        e = random_expr(rng)
        g1, g2 = rng.choice(gens), rng.choice(gens)
        assert partial(partial(e, g1), g2) == partial(partial(e, g2), g1)


@pytest.mark.parametrize("spec", [FunctionSpec.linear(), FunctionSpec.quadratic(),
                                  FunctionSpec.log_shift()])
def test_specialize_is_differential_ring_morphism(spec):
    rng = random.Random(13)
    for _ in range(60):
        a = random_expr(rng)
        b = random_expr(rng)
        assert specialize_f(a * b, spec) == specialize_f(a, spec) * specialize_f(b, spec)
        assert specialize_f(total_x(a), spec) == total_x(specialize_f(a, spec))
