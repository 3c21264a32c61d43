"""Differential test of ``analysis.linear_relations`` against sympy.

Seeded systems: a few independent expressions, each a random polynomial
with coefficients in Z[a, b] over the monomials of u, u_x, u_xx, x and f(u),
some divided by a power of u+a; then planted dependent ones, combinations of
the independent ones with coefficients in Z[a, b], and now and then a zero
expression; the order is shuffled, so a dependent expression may come before
the ones it is built from and its relation then has coefficients in Q(a, b).
Every expression is built twice from the same random choices, as a JetExpr
and as a sympy expression.  sympy clears the denominators, reads the
coefficient matrix over the free monomials and takes its nullspace, which
has the same convention as ``linear_relations``: one vector per free column,
1 there and 0 at the other free columns.

``Matrix.nullspace`` does that in expression arithmetic and takes up to 20 s
on one of these systems, so the oracle takes the same nullspace over the
fraction field Z(a, b) with ``DomainMatrix.nullspace(divide_last=True)``: a
vector nonzero only at its free column and earlier pivot columns, divided by
its last nonzero entry, is 1 at that column.  One test ties the two paths
together on the systems ``Matrix.nullspace`` solves quickly.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from jetcalc.analysis import linear_relations  # noqa: E402
from jetcalc.expr import ONE_EXPR, ZERO_EXPR, fn, par, u, x  # noqa: E402

A, B, U, UX, UXX, X, F = sympy.symbols("a b u u_x u_xx x f")
PARAMS = {"a": A, "b": B}
FREE = [(u(0), U), (u(1), UX), (u(2), UXX), (x(), X), (fn("f"), F)]


def _random_coefficient(rng: random.Random):
    """A small nonzero polynomial in Z[a, b], as (JetExpr, sympy) values."""
    ours, theirs = ZERO_EXPR, sympy.Integer(0)
    while theirs == 0:
        for _ in range(rng.randint(1, 2)):
            c, i, j = rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 1)
            ours = ours + c * par("a") ** i * par("b") ** j
            theirs = sympy.expand(theirs + c * A ** i * B ** j)
    return ours, theirs


def _random_expression(rng: random.Random):
    ours, theirs = ZERO_EXPR, sympy.Integer(0)
    while theirs == 0:
        for _ in range(rng.randint(1, 3)):
            c_ours, c_theirs = _random_coefficient(rng)
            m_ours, m_theirs = ONE_EXPR, sympy.Integer(1)
            for _ in range(rng.randint(0, 2)):
                g_ours, g_theirs = rng.choice(FREE)
                m_ours, m_theirs = m_ours * g_ours, m_theirs * g_theirs
            ours, theirs = ours + c_ours * m_ours, sympy.expand(theirs + c_theirs * m_theirs)
    k = rng.choice((0, 0, 1, 2))
    return ours / (u(0) + par("a")) ** k, theirs / (U + A) ** k


def _system(seed: int):
    rng = random.Random(seed)
    pairs = [_random_expression(rng) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            pairs.append((ZERO_EXPR, sympy.Integer(0)))
            continue
        ours, theirs = ZERO_EXPR, sympy.Integer(0)
        for e_ours, e_theirs in rng.sample(pairs, rng.randint(1, len(pairs))):
            c_ours, c_theirs = _random_coefficient(rng)
            ours, theirs = ours + c_ours * e_ours, theirs + c_theirs * e_theirs
        pairs.append((ours, theirs))
    rng.shuffle(pairs)
    return [p for p, _ in pairs], [s for _, s in pairs]


def _sympy_matrix(exprs):
    """Rows over the free monomials of the expressions times (u+a)^2."""
    cleared = [sympy.cancel(sympy.together(e) * (U + A) ** 2) for e in exprs]
    rows: dict = {}
    free = [s for _, s in FREE]
    for j, e in enumerate(cleared):
        for mono, coeff in sympy.Poly(e, *free).terms():
            rows.setdefault(mono, [0] * len(exprs))[j] = coeff
    return sympy.Matrix([rows[m] for m in sorted(rows)]) if rows \
        else sympy.zeros(1, len(exprs))


def _sympy_nullspace(exprs):
    null = DomainMatrix.from_Matrix(_sympy_matrix(exprs)).to_field()
    return [list(v) for v in null.nullspace(divide_last=True).to_Matrix().tolist()]


def _to_sympy(e):
    def poly(p):
        total = sympy.Integer(0)
        for mono, coeff in p.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for g, k in mono:
                term *= PARAMS[g.name] ** k
            total += term
        return total
    return poly(e.num) / poly(e.den)


@pytest.mark.parametrize("seed", range(24))
def test_linear_relations_match_sympy_nullspace(seed):
    ours, theirs = _system(seed)
    got = linear_relations(ours)
    want = _sympy_nullspace(theirs)
    assert len(got) == len(want)
    for vec, ref in zip(got, want):
        assert len(vec) == len(ours)
        for c, r in zip(vec, ref):
            assert sympy.cancel(_to_sympy(c) - r) == 0, (seed, vec, list(ref))


@pytest.mark.parametrize("seed", (2, 15, 20))
def test_domain_nullspace_is_the_matrix_nullspace(seed):
    exprs = _system(seed)[1]
    want = _sympy_matrix(exprs).nullspace()
    got = _sympy_nullspace(exprs)
    assert len(got) == len(want)
    for vec, ref in zip(got, want):
        assert all(sympy.cancel(c - r) == 0 for c, r in zip(vec, ref))


def test_the_systems_plant_relations_with_rational_coefficients():
    # the seeds above reach the cases the convention is about: several
    # relations in one system, and a relation that divides by a or b
    counts, rational = [], 0
    for seed in range(24):
        rels = linear_relations(_system(seed)[0])
        counts.append(len(rels))
        rational += any(not c.den.is_const() for vec in rels for c in vec)
    assert max(counts) >= 2 and rational >= 3
