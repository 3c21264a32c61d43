"""Differential test of denominator cancellation against sympy.

Seeded numerators and denominators over u, u_x, x, b, c and gamma are built
from planted factors: linear ones that carry the degree-one certificate,
such as u+c and gamma, with multiplicity; irreducible ones that do not,
such as u^2+1 and c^2*u^2+1; and coprime products that share variables,
such as (u+c)*(u-c).  Numerators share none, some or all of the
denominator's factors.  Everything is converted to sympy's sparse
polynomial ring over QQ through ``Poly.items`` (never through the DSL);
``squarefree_factors`` is checked with sympy's ``factor_list`` and
``JetExpr._reduce`` with sympy's ``cancel``.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from jetcalc.expr import JetExpr  # noqa: E402
from jetcalc.poly import ONE, X, ZERO, Poly, jet, param, squarefree_factors  # noqa: E402

GENS = (jet(0), jet(1), X, param("b"), param("c"), param("gamma"))
INDEX = {g: i for i, g in enumerate(GENS)}
R, *_ = sympy.ring("u,u_x,x,b,c,gamma", sympy.QQ)
u, ux, x, b, c, gamma = (Poly.gen(g) for g in GENS)

# degree 1 in some generator, with coprime coefficients in it (u^2 + c in c)
CERTIFIED = (u + c, u - c, gamma, b, x * u + c, u + Poly.const(Fraction(1, 2)), ux + c * u,
             u * u + c)
# degree 2 or more in every generator
UNCERTIFIED = (u * u + ONE, c * c * u * u + ONE, u * u + c * c, ux * ux + b * b * u * u + ONE)


def _to_ring(p: Poly):
    terms = {}
    for m, coeff in p.items():
        exps = [0] * len(GENS)
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


def _planted(rng: random.Random) -> list:
    """(factor, exponent) pairs of distinct pool factors."""
    pool = CERTIFIED + UNCERTIFIED
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
        got_n, got_d = _to_ring(result.num), _to_ring(result.den)
        assert got_n * d_s == n_s * got_d, context
        assert got_d.monic() == d_s.monic(), context                      # fully cancelled
        # canonical denominator: integer, content 1, positive leading coefficient
        assert result.den.den == 1 and result.den.content() == 1, context
        assert result.den.leading()[1] > 0, context
    assert min(shared.values()) > 20, shared
