"""Differential test of denominator cancellation against sympy.

Seeded numerators and denominators over u, u_x, x, b, c and gamma are built
from planted factors: linear ones that carry the degree-one certificate,
such as u+c and gamma, with multiplicity; irreducible ones that do not,
such as u^2+1 and c^2*u^2+1; and coprime products that share variables,
such as (u+c)*(u-c).  Numerators share none, some or all of the
denominator's factors.  Everything is converted to sympy's sparse
polynomial ring over QQ through ``Poly.items`` (never through the DSL);
``squarefree_factors`` is checked with sympy's ``factor_list``, and
``JetExpr._reduce``, sums and differences over the lcm of two factored
denominators, ``JetExpr.sum`` of lists of fractions, and the one-step
quotient rule of ``partial`` and ``total_x`` with sympy's ``diff`` and
``cancel``.
"""

import inspect
import random
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

import jetcalc.expr as expr_module  # noqa: E402
from jetcalc.calculus import total_x  # noqa: E402
from jetcalc.expr import JetExpr, partial  # noqa: E402
from jetcalc.poly import ONE, X, ZERO, Poly, jet, param, squarefree_factors  # noqa: E402

GENS = (jet(0), jet(1), X, param("b"), param("c"), param("gamma"))
# u_xx is the image of u_x under D_x; nothing is built from it
INDEX = {g: i for i, g in enumerate(GENS + (jet(2),))}
R, *_ = sympy.ring("u,u_x,x,b,c,gamma,u_xx", sympy.QQ)
u, ux, x, b, c, gamma = (Poly.gen(g) for g in GENS)

# degree 1 in some generator, with coprime coefficients in it (u^2 + c in c)
CERTIFIED = (u + c, u - c, gamma, b, x * u + c, u + Poly.const(Fraction(1, 2)), ux + c * u,
             u * u + c)
# degree 2 or more in every generator
UNCERTIFIED = (u * u + ONE, c * c * u * u + ONE, u * u + c * c, ux * ux + b * b * u * u + ONE)


def _to_ring(p: Poly):
    terms = {}
    for m, coeff in p.items():
        exps = [0] * len(INDEX)
        for g, e in m:
            exps[INDEX[g]] = e
        terms[tuple(exps)] = sympy.QQ(coeff.numerator, coeff.denominator)
    return R.from_dict(terms)


def _variables(s) -> set:
    return {i for i, d in enumerate(s.degrees()) if d > 0}


def _random_poly(rng: random.Random, max_terms=3) -> Poly:
    total = ZERO
    while total.is_zero():
        for _ in range(rng.randint(1, max_terms)):
            term = Poly.const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
            for _ in range(rng.randint(0, 2)):
                term = term * Poly.gen(rng.choice(GENS)) ** rng.randint(1, 2)
            total = total + term
    return total


def _planted(rng: random.Random, pool=CERTIFIED + UNCERTIFIED) -> list:
    """(factor, exponent) pairs of distinct pool factors."""
    picks = rng.sample(range(len(pool)), rng.randint(1, 3))
    return [(pool[i], rng.randint(1, 3)) for i in picks]


def _product(pairs, scale=Fraction(1)) -> Poly:
    total = Poly.const(scale)
    for q, e in pairs:
        total = total * q ** e
    return total


def _random_scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-6, -2, -1, 1, 3, 4)), rng.choice((1, 2, 5)))


def test_squarefree_factors_match_sympy():
    rng = random.Random(901)
    certified = uncertified = 0
    for case in range(150):
        pairs = _planted(rng)
        if rng.random() < 0.3:
            pairs.append((_random_poly(rng), rng.randint(1, 2)))
        p = _product(pairs, _random_scale(rng))
        factors = squarefree_factors(p)
        context = (case, p, factors)
        product = _product([(q, e) for q, e, _ in factors])
        assert _to_ring(product).monic() == _to_ring(p).monic(), context   # up to a constant
        qs = [_to_ring(q) for q, _, _ in factors]
        for i, (q, e, cert) in enumerate(factors):
            assert e >= 1 and not q.is_const() and q.content() == 1, context
            assert q.leading()[1] > 0, context
            _, irreducibles = qs[i].factor_list()
            assert all(k == 1 for _, k in irreducibles), context          # squarefree
            # every irreducible factor involves every generator of q
            assert all(_variables(f) == _variables(qs[i]) for f, _ in irreducibles), context
            if cert:
                assert len(irreducibles) == 1, context                     # irreducible
            certified += cert
            uncertified += not cert
            for other in qs[i + 1:]:
                assert qs[i].gcd(other).is_ground, context                # pairwise coprime
    assert certified > 200 and uncertified > 50, (certified, uncertified)


def _assert_canonical(result: JetExpr, n_s, d_s, context):
    """result equals the cancelled fraction n_s/d_s, fully cancelled, over a
    canonical denominator: integer, content 1, positive leading coefficient."""
    got_n, got_d = _to_ring(result.num), _to_ring(result.den)
    assert got_n * d_s == n_s * got_d, context
    assert got_d.monic() == d_s.monic(), context
    assert result.den.den == 1 and result.den.content() == 1, context
    assert result.den.leading()[1] > 0, context


def test_reduce_matches_sympy_cancel():
    rng = random.Random(902)
    shared = {"none": 0, "some": 0, "all": 0}
    for case in range(200):
        den_pairs = _planted(rng)
        den = _product(den_pairs, _random_scale(rng))
        # the numerator shares none, some or all of the denominator's factors,
        # sometimes with a higher power than the denominator has
        kept = [(q, rng.randint(0, e + 1)) for q, e in den_pairs]
        overlap = sum(k > 0 for _, k in kept)
        shared["none" if overlap == 0 else "all" if overlap == len(kept) else "some"] += 1
        num = _product(kept, _random_scale(rng)) * _random_poly(rng)
        result = JetExpr._reduce(num, den)
        context = (case, num, den, result)
        n_s, d_s = _to_ring(num).cancel(_to_ring(den))
        _assert_canonical(result, n_s, d_s, context)
    assert min(shared.values()) > 20, shared


def _rational(rng: random.Random, pairs) -> JetExpr:
    return JetExpr._reduce(_random_poly(rng), _product(pairs, _random_scale(rng)))


def _sum_pairs(rng: random.Random) -> tuple:
    """(a, b, shared): b's denominator shares none, some or all of a's
    planted factors, with a multiplicity of its own."""
    a_pairs = _planted(rng)
    kept = [(q, rng.randint(1, 3)) for q, _ in a_pairs if rng.random() < 0.6]
    fresh = [(q, e) for q, e in _planted(rng) if all(q is not k for k, _ in a_pairs)]
    b_pairs = kept + fresh[:rng.randint(0 if kept else 1, 2)]
    shared = "none" if not kept else "all" if len(kept) == len(a_pairs) else "some"
    return _rational(rng, a_pairs), _rational(rng, b_pairs), shared


def _sum_oracle(cases) -> tuple:
    """(failures, shared, common): the cases whose a + b or a - b disagrees
    with sympy's cancel, how many cases share none, some or all planted
    factors, and how many shared squarefree factors are certified or not."""
    rng = random.Random(903)
    failures = []
    shared = {"none": 0, "some": 0, "all": 0}
    common = {True: 0, False: 0}
    for case in range(cases):
        a, b, kind = _sum_pairs(rng)
        shared[kind] += 1
        mine = {q for q, _, _ in squarefree_factors(a.den)}
        for q, _, cert in squarefree_factors(b.den):
            common[cert] += q in mine
        an, ad, bn, bd = (_to_ring(p) for p in (a.num, a.den, b.num, b.den))
        for sign, result in ((1, a + b), (-1, a - b)):
            n_s, d_s = (an * bd + sign * bn * ad).cancel(ad * bd)
            try:
                _assert_canonical(result, n_s, d_s, (case, sign, a, b, result))
            except AssertionError:
                failures.append((case, sign))
    return failures, shared, common


def test_sums_over_the_lcm_match_sympy_cancel():
    failures, shared, common = _sum_oracle(100)
    assert failures == []
    assert min(shared.values()) > 15, shared
    assert min(common.values()) > 20, common


def test_sum_oracle_catches_an_undivided_cofactor(monkeypatch):
    # a mutant of JetExpr.__add__ that leaves b's cofactor undivided by g
    src = textwrap.dedent(inspect.getsource(JetExpr.__add__))
    mutant = src.replace("div_exact(other.den, g)", "other.den")
    assert mutant != src
    namespace = dict(vars(expr_module))
    exec(mutant, namespace)
    monkeypatch.setattr(JetExpr, "__add__", namespace["__add__"])
    failures, _, _ = _sum_oracle(20)
    assert len(failures) > 10


# the denominators of list sums: powers of u+c and of the coprime u-c, u^2+1
# and c^2*u^2+1, and parameters.  u_x^2 + b^2*u^2 + 1 is left out: a gcd with
# its cube beside other factors takes seconds, a cost of poly_gcd, not of the sum
SUM_FACTORS = (u + c, u - c, u * u + ONE, c * c * u * u + ONE, gamma, b)


def _sum_terms(rng: random.Random) -> list:
    """2 to 6 fractions whose denominators are drawn from two planted
    products, so that some terms share a denominator and others are coprime
    or share only a factor.  In about a third of the cases every numerator
    is over one product and the last one makes the total divisible by one of
    its factors, which only the reduction of that one group can cancel."""
    pools = [_planted(rng, SUM_FACTORS) for _ in range(2)]
    count = rng.randint(2, 6)
    if rng.random() < 0.35:
        pairs = pools[0]
        nums = [_random_poly(rng) for _ in range(count - 1)]
        q, _ = rng.choice(pairs)
        rest = ZERO
        for n in nums:
            rest = rest + n
        nums.append(q * _random_poly(rng) - rest)
        den = _product(pairs, _random_scale(rng))
        return [JetExpr._reduce(n, den) for n in nums]
    return [_rational(rng, rng.choice(pools)) for _ in range(count)]


def _list_sum_oracle(cases) -> tuple:
    """(failures, grouped, single): the cases whose JetExpr.sum disagrees
    with sympy's cancel, and how many cases have a group of two or more
    terms over one denominator, or a single such group."""
    rng = random.Random(905)
    failures = []
    grouped = single = 0
    for case in range(cases):
        terms = _sum_terms(rng)
        sizes = Counter(t.den for t in terms if not t.is_zero)
        grouped += max(sizes.values(), default=0) >= 2
        single += len(sizes) == 1 and len(terms) >= 2
        n_s, d_s = R.zero, R.one
        for t in terms:
            tn, td = _to_ring(t.num), _to_ring(t.den)
            n_s, d_s = (n_s * td + tn * d_s).cancel(d_s * td)
        result = JetExpr.sum(terms)
        try:
            _assert_canonical(result, n_s, d_s, (case, terms, result))
        except AssertionError:
            failures.append(case)
    return failures, grouped, single


def test_list_sums_match_sympy_cancel():
    failures, grouped, single = _list_sum_oracle(80)
    assert failures == []
    assert grouped > 40 and single > 15, (grouped, single)


def test_list_sum_oracle_catches_an_unreduced_group(monkeypatch):
    # a mutant of JetExpr.combination, which JetExpr.sum wraps, that merges
    # each group's numerator sum unreduced
    src = textwrap.dedent(inspect.getsource(JetExpr.combination))
    mutant = src.replace("JetExpr._reduce(", "JetExpr(")
    assert mutant != src
    namespace = dict(vars(expr_module))
    exec(mutant, namespace)
    monkeypatch.setattr(JetExpr, "combination", namespace["combination"])
    failures, _, _ = _list_sum_oracle(40)
    assert len(failures) > 5


def _check_derivatives(e: JetExpr, context):
    """partial(e, u) and total_x(e) against the quotient rule in sympy."""
    u, ux, x, uxx = R.gens[0], R.gens[1], R.gens[2], R.gens[6]
    n, d = _to_ring(e.num), _to_ring(e.den)
    for name, result, dn, dd in (
            ("partial_u", partial(e, jet(0)), n.diff(u), d.diff(u)),
            ("total_x", total_x(e), n.diff(x) + ux * n.diff(u) + uxx * n.diff(ux),
             d.diff(x) + ux * d.diff(u) + uxx * d.diff(ux))):
        n_s, d_s = (dn * d - n * dd).cancel(d * d)
        _assert_canonical(result, n_s, d_s, (context, name, e, result))


def test_quotient_rule_matches_sympy_diff():
    rng = random.Random(904)
    rational = 0
    for case in range(100):
        e = _rational(rng, _planted(rng))
        rational += not e.den.is_const()
        _check_derivatives(e, case)
    assert rational > 80, rational


def test_quotient_rule_over_a_factor_in_three_generators():
    # D_x brings in u_xx, which the uncertified factor u^2*b^2 + u_x^2 + 1
    # lacks: its gcd with the numerator once took minutes
    u, ux, x, b, c = (Poly.gen(g) for g in GENS[:5])
    den = (u * c + ux) ** 2 * (x * u + c) ** 2 * (u * u * b * b + ux * ux + ONE) ** 2
    e = JetExpr._reduce(x ** 4 - (u * u * b * b).scale(Fraction(1, 6)), den)
    _check_derivatives(e, "u^2*b^2 + u_x^2 + 1")
