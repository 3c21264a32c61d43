from fractions import Fraction

import pytest

import jetcalc.analysis as analysis
from jetcalc import ConstantF, NotQuadratic
from jetcalc.analysis import (
    conservation_residual,
    is_conserved_density,
    rank_of,
    symmetry_from_density,
    symmetry_residual,
)
from jetcalc.calculus import EvolutionEquation, euler, frechet_hat, order, total_t, total_x
from jetcalc.expr import FunctionSpec, as_expr, fn, par, specialize_f, substitute, t, u, unk, x
from jetcalc.kawahara import (
    DensityFluxPair,
    catalog,
    gke,
    linear_dependence_gate,
    normalize_quadratic_f,
    point_symmetry_basis,
    verify_catalog,
    verify_entry,
    verify_theorem,
)
from jetcalc.poly import jet

b, alpha, beta, gamma, c = (par(n) for n in ("b", "alpha", "beta", "gamma", "c"))


def test_gke_construction():
    eq = gke(FunctionSpec.abstract())
    assert eq.order == 5
    assert eq.rhs == u(5) + b * u(3) + fn("f") * u(1)
    S = frechet_hat(eq.rhs)
    assert S.coeff(5) == as_expr(1)
    assert S.coeff(3) == b
    assert S.coeff(1) == fn("f")
    assert S.coeff(0) == fn("f", 1) * u(1)


def test_gke_linear_form():
    eq = gke(FunctionSpec.linear())
    assert eq.rhs == u(5) + b * u(3) + (alpha * u(0) + beta) * u(1)


def test_gke_rejects_constant_f():
    with pytest.raises(ConstantF):
        gke(FunctionSpec.polynomial([par("p0")]))
    with pytest.raises(ConstantF):
        gke(FunctionSpec.log_shift(0, "delta"))


def test_normalize_quadratic_generic():
    p0, p1, p2 = par("p0"), par("p1"), par("p2")
    spec = FunctionSpec.polynomial([p0, p1, p2])
    new_spec, rec = normalize_quadratic_f(spec)
    assert new_spec == FunctionSpec.quadratic()
    assert rec.u_shift == -p1 / (2 * p2)
    assert rec.x_shift_rate == p0 - p1 ** 2 / (4 * p2)
    assert rec.scale_relation is not None
    lhs, rhs = rec.scale_relation
    assert lhs == par("s") ** 2 and rhs == p2


def test_normalize_quadratic_u2_plus_2u():
    spec = FunctionSpec.polynomial([0, 2, 1])
    new_spec, rec = normalize_quadratic_f(spec)
    assert rec.u_shift == as_expr(-1)
    assert rec.x_shift_rate == as_expr(-1)
    assert rec.scale == as_expr(1)
    # shifting f by the recorded amount yields u^2 - 1
    f = specialize_f(fn("f"), spec)
    shifted = substitute(f, jet(0), u(0) + rec.u_shift)
    assert shifted == u(0) ** 2 - 1


def test_normalize_quadratic_identity():
    spec = FunctionSpec.quadratic()
    new_spec, rec = normalize_quadratic_f(spec)
    assert rec.u_shift.is_zero
    assert rec.x_shift_rate.is_zero
    assert rec.scale == as_expr(1)


def test_normalize_quadratic_exact_scale_of_a_large_square():
    big = 10 ** 17 + 3
    for p2, scale in ((big ** 2, big), (Fraction(big ** 2, 9), Fraction(big, 3))):
        _, rec = normalize_quadratic_f(FunctionSpec.polynomial([0, 0, p2]))
        assert rec.scale == as_expr(scale) and rec.scale_relation is None
    # no rational square root of a negative p2: the scale stays s with s^2 = p2
    _, rec = normalize_quadratic_f(FunctionSpec.polynomial([0, 0, -4]))
    assert rec.scale_relation == (par("s") ** 2, as_expr(-4))


def test_normalize_quadratic_rejects_lower_degree():
    with pytest.raises(NotQuadratic):
        normalize_quadratic_f(FunctionSpec.linear())


def test_conjugation_of_rho2():
    # transforming the equation and the density commute for f = u^2 + 2u
    spec = FunctionSpec.polynomial([0, 2, 1])
    eq1 = gke(spec)
    assert is_conserved_density(eq1, u(0) ** 2)
    new_spec, rec = normalize_quadratic_f(spec)
    eq2 = gke(new_spec)
    transported = substitute(u(0) ** 2, jet(0), u(0) / rec.scale + rec.u_shift)
    assert transported == (u(0) - 1) ** 2
    assert is_conserved_density(eq2, transported)


def test_linear_dependence_gate():
    assert not linear_dependence_gate(FunctionSpec.abstract())
    assert linear_dependence_gate(FunctionSpec.linear())
    assert linear_dependence_gate(FunctionSpec.log_shift())
    assert not linear_dependence_gate(FunctionSpec.quadratic())


def test_catalog_verifies():
    syms, dens = verify_catalog()
    assert all(s.verified for s in syms)
    assert all(d.verified for d in dens)
    assert all(d.flux_reconstructed for d in dens)
    # sigma3 as printed is exactly the reconstruction; sigma1/2/4 differ
    by_label = {d.label: d for d in dens}
    assert by_label["rho3"].flux_diff_vs_printed.is_zero
    assert not by_label["rho1"].flux_diff_vs_printed.is_zero
    assert not by_label["rho2"].flux_diff_vs_printed.is_zero
    # the published rho4 misses the beta-term completion
    assert by_label["rho4"].density_diff_vs_printed == beta * t() * u(0)


def test_catalog_symmetry_orders():
    syms, dens = catalog()
    assert [s.order for s in syms] == [5, 1, 1, 1]


def test_catalog_entries_are_fresh_per_call():
    # the expressions are built once per process, the entries on each call:
    # verify_entry fills one call's entries and leaves the other's as built
    first, second = catalog(), catalog()
    assert first == second
    built = catalog()
    for mine, other in zip(first[0] + first[1], second[0] + second[1]):
        assert mine is not other
    eq = gke(FunctionSpec.linear())
    for entry in first[0] + first[1]:
        if entry.domain in ("abstract", "linear"):
            verify_entry(entry, eq)
    assert all(s.verified for s in first[0] if s.domain != "logshift")
    assert first[1][-1].flux is not None
    assert second == built and not any(e.verified for e in second[0] + second[1])


def test_q4_verifies_under_log_shift(eq_log):
    q4 = t() * u(1) + (u(0) + c) / gamma
    assert symmetry_residual(eq_log, q4).is_zero


def test_rho3_verifies_abstract(eq_abstract):
    rho3 = (u(2) ** 2 - b * u(1) ** 2) / 2 + fn("rhat")
    assert euler(eq_abstract.rhs).is_zero  # rhs itself is exact
    assert is_conserved_density(eq_abstract, rho3)


def test_density_to_symmetry_links(eq_abstract, eq_linear):
    _, dens = catalog()
    rho2 = dens[1].rho
    rho3 = dens[2].rho
    q1 = u(5) + b * u(3) + fn("f") * u(1)
    assert symmetry_from_density(rho3) == q1
    assert symmetry_from_density(rho2) == 2 * u(1)
    rho4 = specialize_f(dens[3].rho, eq_linear.fspec)
    q3 = t() * u(1) + 1 / alpha
    assert symmetry_from_density(rho4) == alpha * q3


def test_characteristic_orders_at_most_four():
    syms, dens = verify_catalog()
    for d in dens:
        assert order(d.characteristic) <= 4


def test_printed_rho4_fails_for_generic_beta(eq_linear):
    # the published density xu + alpha t u^2/2 needs the beta t u completion
    rho4_printed = x() * u(0) + alpha * t() * u(0) ** 2 / 2
    assert not is_conserved_density(eq_linear, rho4_printed)
    assert euler((eq_linear.dx_rhs(0) * 0) + rho4_printed) is not None  # smoke
    # with beta = 0 the published form is conserved
    spec0 = FunctionSpec.polynomial([0, alpha])
    eq0 = gke(spec0)
    assert is_conserved_density(eq0, rho4_printed)


def test_theorem1_all_branches():
    rep = verify_theorem(1, FunctionSpec.abstract())
    assert rep.verified
    assert rep.extra_symmetries == [u(1)]
    rep = verify_theorem(1, FunctionSpec.linear())
    assert rep.verified
    assert set(rep.extra_symmetries) == {u(1), t() * u(1) + 1 / alpha}
    rep = verify_theorem(1, FunctionSpec.log_shift())
    assert rep.verified
    assert set(rep.extra_symmetries) == {u(1), t() * u(1) + (u(0) + c) / gamma}


def test_theorem2_reports():
    rep = verify_theorem(2, FunctionSpec.abstract())
    assert rep.verified
    assert [d.label for d in rep.densities] == ["rho1", "rho2", "rho3"]
    rep = verify_theorem(2, FunctionSpec.linear())
    assert rep.verified
    assert [d.label for d in rep.densities] == ["rho1", "rho2", "rho3", "rho4"]
    for d in rep.densities:
        assert conservation_residual(gke(rep.spec), d.rho, d.flux).is_zero


def test_theorem2_takes_one_time_derivative_per_density(monkeypatch):
    # D_t(rho) feeds the integrator, the exact residual check and, only when
    # the integrator leaves a residual, the Euler test: one D_t per density,
    # not one in each of them
    calls = []

    def counting(e, eq):
        calls.append(e)
        return total_t(e, eq)

    monkeypatch.setattr(analysis, "total_t", counting)
    rep = verify_theorem(2, FunctionSpec.abstract())
    assert rep.verified and all(d.flux_reconstructed for d in rep.densities)
    assert calls == [d.rho for d in rep.densities] and len(calls) == 3


def test_theorem3_abstract_and_quadratic():
    rep = verify_theorem(3, FunctionSpec.abstract())
    assert rep.verified
    assert rep.scan.obstruction_index == -3
    rep = verify_theorem(3, FunctionSpec.quadratic())
    assert rep.verified
    assert rep.scan.obstruction_index == -7


def test_theorem3_linear_branch_reports_survival():
    # the literal rank-13 claim fails on the linear branch; the verifier
    # reports the existing window and the deeper obstruction honestly
    rep = verify_theorem(3, FunctionSpec.linear())
    assert not rep.verified
    assert rep.scan.survived
    assert any("formal symmetries of rank 13 exist" in d for d in rep.details)
    assert any("no formal symmetry of rank 15 or greater" in d for d in rep.details)


def test_scan_quadratic_transcript_equations(eq_quadratic):
    from jetcalc.analysis import formal_symmetry_scan
    rep = formal_symmetry_scan(eq_quadratic, 13)
    # the first four coefficient equations are plain -5 D_x(coeff) = 0, so
    # each coefficient is left as its own unknown function of t
    for step, name in zip(rep.steps[:4], ("g", "l0", "l1", "l2")):
        assert step.solved_coefficient == unk(name)


def test_lemma2_rank_bound(eq_abstract):
    # verified symmetries give formal symmetries of rank >= order + 4
    syms, _ = catalog()
    for s in syms[:2]:
        r = rank_of(eq_abstract, frechet_hat(s.Q))
        assert r.unbounded or r.value >= s.order + 4


def test_point_basis_labels():
    assert len(point_symmetry_basis()) == 5


def test_higher_degree_polynomial_f_takes_the_abstract_branch():
    # f = u^3 has no u^2 term but is not linear: no Q3, no rho4
    spec = FunctionSpec.polynomial([0, 0, 0, 1])
    rep = verify_theorem(1, spec)
    assert rep.verified
    assert [s.label for s in rep.symmetries] == ["Q1", "Q2"]
    assert rep.extra_symmetries == [u(1)]
    rep = verify_theorem(2, spec)
    assert rep.verified
    assert [d.label for d in rep.densities] == ["rho1", "rho2", "rho3"]


def test_catalog_entries_bind_the_spec_coefficients():
    # Q3, Q4 and rho4 are written in alpha, beta, gamma; they must take the
    # coefficients of the f actually given, swapped names included
    for alpha_value, beta_value in ((2, 3), (par("a"), par("b2")), (beta, alpha)):
        spec = FunctionSpec.polynomial([beta_value, alpha_value])
        rep = verify_theorem(1, spec)
        assert rep.verified
        q3 = rep.symmetries[-1]
        assert q3.label == "Q3" and q3.Q == t() * u(1) + 1 / as_expr(alpha_value)
        rep = verify_theorem(2, spec)
        assert rep.verified
        rho4 = rep.densities[-1]
        assert rho4.label == "rho4"
        assert rho4.rho == (x() * u(0) + alpha_value * t() * u(0) ** 2 / 2
                            + beta_value * t() * u(0))
        assert rho4.density_diff_vs_printed == beta_value * t() * u(0)
    for gamma_value, delta_value in ((2, 3), (par("delta"), gamma)):
        rep = verify_theorem(1, FunctionSpec.log_shift(gamma_value, delta_value))
        assert rep.verified
        q4 = rep.symmetries[-1]
        assert q4.label == "Q4" and q4.Q == t() * u(1) + (u(0) + c) / gamma_value


def test_verify_entry_flux_outside_the_integrators_class():
    # conserved by the Euler test; the flux u_xx + arctan u is not rational
    eq = EvolutionEquation(u(3) + u(1) / (1 + u(0) ** 2))
    d = DensityFluxPair("rho", u(0), "abstract")
    assert verify_entry(d, eq)
    assert (d.verified, d.flux_reconstructed, d.flux) == (True, False, None)
    assert d.characteristic == as_expr(1)
