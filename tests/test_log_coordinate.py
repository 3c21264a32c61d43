"""The log branch's coordinate w = u + c.

``expr.to_w`` writes an expression in w (u -> w - c, ln(u+c) -> ln(w)) and
``expr.from_w`` translates it back.  The map is a ring automorphism that
commutes with D_x, D_t and d/du, so for seeded expressions of the log branch
shifting into w, operating there and shifting back must give the operation
in u exactly, canonical form included.  Formal x-integration must agree too,
zeta and residual with their constants: an antiderivative built on powers of
u vanishes at u = 0, that is at w = c, and a mutant that lets it vanish at
w = 0 must fail the check.  The catalog entries and the Theorem 3 scan,
computed on the equation in w, must report what they report in u.
"""

import inspect
import random
import textwrap
from fractions import Fraction

import pytest

import jetcalc.calculus as calculus
from jetcalc import FunctionSpec, formal_symmetry_scan, gke
from jetcalc.calculus import euler, formal_x_integrate, total_t, total_x
from jetcalc.expr import (
    JetExpr,
    as_expr,
    from_w,
    ln_shift,
    ln_w,
    par,
    partial_u_total,
    t,
    to_w,
    u,
    x,
)
from jetcalc.kawahara import catalog, verify_entry

B, C, GAMMA = par("b"), par("c"), par("gamma")
UC = u(0) + C
LN = ln_shift()
POOL = (u(0), u(1), u(2), x(), t(), B, C, LN)
POINT_POOL = (u(0), x(), B, C, LN)
LOG = FunctionSpec.log_shift()
EQ_U = gke(LOG)
EQ_W = gke(LOG.in_w())


def _poly(rng: random.Random, pool, max_terms=3) -> JetExpr:
    total = as_expr(0)
    for _ in range(rng.randint(1, max_terms)):
        term = as_expr(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(pool) ** rng.randint(1, 2)
        total = total + term
    return total


def _log_expr(rng: random.Random, pool=POOL) -> JetExpr:
    """A numerator over the pool, over a power of u + c times a parameter factor."""
    return _poly(rng, pool) / (UC ** rng.randint(0, 3) * rng.choice((1, B, B + C, GAMMA)))


def test_translation_atoms_and_round_trip():
    assert to_w(UC) == u(0) and from_w(u(0)) == UC
    assert to_w(LN) == ln_w() and from_w(ln_w()) == LN
    assert to_w(u(1)) == u(1) and to_w(B) == B
    # the unit of a denominator is renewed: 1/(c - u) is -1/(u - c) in canonical form
    assert from_w(1 / (2 * C - u(0))) == 1 / (C - u(0))
    rng = random.Random(2801)
    for case in range(100):
        a, b = _log_expr(rng), _log_expr(rng)
        assert from_w(to_w(a)) == a, (case, a)
        assert to_w(a * b) == to_w(a) * to_w(b), (case, a, b)
        assert to_w(a + b) == to_w(a) + to_w(b), (case, a, b)


def test_the_equation_in_w_is_the_translated_equation():
    assert EQ_W.rhs == to_w(EQ_U.rhs)
    assert EQ_W.fspec.shifted and not EQ_U.fspec.shifted


# name -> (operation in w, the same in u, pool, cases)
OPERATIONS = {
    "total_x": (total_x, total_x, POOL, 120),
    "total_t": (lambda e: total_t(e, EQ_W), lambda e: total_t(e, EQ_U), POOL, 40),
    "partial_u_total": (partial_u_total, partial_u_total, POINT_POOL, 120),
    "euler": (euler, euler, POOL, 40),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_derivations_commute_with_the_translation(name):
    op_w, op_u, pool, cases = OPERATIONS[name]
    rng = random.Random(2802)
    for case in range(cases):
        e = _log_expr(rng, pool)
        assert from_w(op_w(to_w(e))) == op_u(e), (case, e)


def _integrands(seed: int) -> list[JetExpr]:
    """The fluxes of rho1 and rho2, then D_x of seeded sums inside the
    integrator's class (powers of u + c and of u, ln(u+c) powers, jets), half
    of them with a random term that leaves a residual."""
    integrands = [total_t(u(0), EQ_U), total_t(u(0) ** 2, EQ_U), u(0) * u(1), B * u(1)]
    rng = random.Random(seed)
    factors = (u(0), u(1), LN, 1 / UC, B, C)
    for case in range(60):
        G = JetExpr.sum(_poly(rng, (B, C), 1) * rng.choice(factors) ** rng.randint(0, 3)
                        * rng.choice(factors) ** rng.randint(0, 2)
                        for _ in range(rng.randint(1, 3)))
        F = total_x(G)
        integrands.append(F + _log_expr(rng) if case % 2 else F)
    return integrands


def _integration_mismatches(integrands) -> list:
    bad = []
    for case, F in enumerate(integrands):
        zeta_w, res_w = formal_x_integrate(to_w(F), shifted=True)
        if (from_w(zeta_w), from_w(res_w)) != formal_x_integrate(F):
            bad.append((case, F))
    return bad


def test_formal_x_integrate_commutes_with_the_translation():
    integrands = _integrands(2803)
    assert _integration_mismatches(integrands) == []
    # most of them integrate in full
    assert sum(formal_x_integrate(F)[1].is_zero for F in integrands) > 30


def test_a_polynomial_antiderivative_in_u_vanishes_at_w_equal_c():
    # u*u_x = D_x(u^2/2): in w the antiderivative is (w - c)^2/2, not w^2/2 - c*w
    zeta, res = formal_x_integrate(to_w(u(0) * u(1)), shifted=True)
    assert res.is_zero and zeta == to_w(u(0) ** 2 / 2)
    # powers of u + c are powers of w, with no constant added
    zeta, res = formal_x_integrate(to_w(u(1) / UC ** 2), shifted=True)
    assert res.is_zero and zeta == -1 / u(0)


def test_a_mutant_vanishing_at_w_zero_fails_the_check(monkeypatch):
    src = textwrap.dedent(inspect.getsource(calculus._integrate_rational_u))
    mutant = src.replace("if shifted and not zeta.is_zero:", "if False:")
    assert mutant != src
    namespace = dict(vars(calculus))
    exec(mutant, namespace)
    monkeypatch.setattr(calculus, "_integrate_rational_u", namespace["_integrate_rational_u"])
    bad = _integration_mismatches(_integrands(2803))
    # the fluxes of rho1 and rho2 are among them: they move by -c*delta and c^2*delta
    assert len(bad) > 5 and {0, 1} <= {case for case, _ in bad}


def test_catalog_entries_verify_alike_in_w():
    # bound and verified in w, every field is translated back
    syms_u, dens_u = catalog()
    syms_w, dens_w = catalog()
    for in_u, in_w in zip(syms_u + dens_u, syms_w + dens_w):
        if in_u.domain in ("abstract", "logshift"):
            assert verify_entry(in_u, EQ_U) and verify_entry(in_w, EQ_W), in_u.label
            assert vars(in_w) == vars(in_u), in_u.label


def test_the_scan_in_w_reports_as_in_u():
    scan_u = formal_symmetry_scan(EQ_U, 13)
    scan_w = formal_symmetry_scan(EQ_W, 13)
    assert scan_w.verdict == scan_u.verdict == "ObstructionFound(xi^-3: g = 0)"
    assert scan_w == scan_u
