import random
from fractions import Fraction
from math import gcd

from jetcalc import FunctionSpec, GKESpec, gke
from jetcalc.analysis import formal_symmetry_scan
from jetcalc.dsl import parse_series
from jetcalc.poly import (
    EMPTY_MONO,
    ONE,
    T,
    X,
    ZERO,
    Poly,
    _to_univariate,
    fnsym,
    jet,
    param,
)
from jetcalc.series import nth_root

POOL = [X, T, jet(0), jet(1), jet(2), fnsym("f"), fnsym("f", 1), param("b"), param("c")]


def random_poly(rng: random.Random, max_terms=5, max_factors=3, max_exp=3) -> Poly:
    total = ZERO
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.const(Fraction(rng.randint(1, 5) * rng.choice((1, -1)),
                                   rng.choice((1, 2, 3))))
        for _ in range(rng.randint(0, max_factors)):
            term = term * Poly.gen(rng.choice(POOL)) ** rng.randint(1, max_exp)
        total = total + term
    return total


def dense_reference(p: Poly, v) -> list[Poly]:
    """Coefficient list of p in v, one g-power at a time."""
    d = p.degree_in(v)
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
            coeff = coeff + Poly.const(c) * Poly({rest: 1})
        out.append(coeff)
    return out


def test_split_recombines():
    rng = random.Random(61)
    for _ in range(300):
        p = random_poly(rng)
        gens = set(rng.sample(POOL, rng.randint(0, 4)))
        total = ZERO
        for outer, inner in p.split(gens).items():
            assert all(g in gens for g, _ in outer)
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
    assert p.split({X, T}) == {((X, 1), (T, 1)): ONE, ((T, 1),): ONE}


def test_to_univariate_matches_dense_reference():
    rng = random.Random(63)
    for _ in range(300):
        p = random_poly(rng)
        v = rng.choice(POOL)
        assert _to_univariate(p, v) == dense_reference(p, v)


def _assert_canonical(p: Poly):
    assert all(type(c) is int and c != 0 for c in p.terms.values()), p
    assert type(p.den) is int and p.den >= 1, p
    assert gcd(p.den, *p.terms.values()) == 1, p


def test_every_poly_of_a_scan_and_a_root_is_canonical(monkeypatch):
    # int coefficients over one positive denominator, coprime with them: every
    # Poly built by a Theorem 3 scan on log f and a 12-slot root is checked
    built = []
    init = Poly.__init__

    def checked_init(self, terms=None, den=1):
        init(self, terms, den)
        _assert_canonical(self)
        built.append(den)

    monkeypatch.setattr(Poly, "__init__", checked_init)
    formal_symmetry_scan(gke(GKESpec(FunctionSpec.log_shift())))
    scan_polys = len(built)
    nth_root(parse_series("xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x"), 5, slots=12)
    assert scan_polys > 1000 and len(built) - scan_polys > 1000
    assert max(built) > 1
    for p in (ZERO, ONE):
        _assert_canonical(p)
