"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact-zero or exact-structural assertions; run with -s to see
the per-criterion lines."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetcalc import (
    FunctionSpec,
    gke,
    verify_theorem,
)
from jetcalc.analysis import (
    formal_symmetry_scan,
    rank_of,
    solve_linear_ansatz,
    symmetry_from_density,
    symmetry_residual,
)
from jetcalc.calculus import (
    euler,
    formal_x_integrate,
    frechet_hat,
    order,
    total_t,
    total_x,
)
from jetcalc.cli import main
from jetcalc.dsl import parse, print_expr
from jetcalc.expr import as_expr, fn, par, specialize_f, t, u, unk, x
from jetcalc.kawahara import catalog, point_symmetry_basis, verify_catalog
from jetcalc.series import (
    PsdSeries,
    adjoint,
    commutator,
    compose,
    nth_root,
    series_power,
)

from conftest import agrees, gen_pool, in_ker_dx, random_expr

GOLDEN = Path(__file__).parent / "golden"
alpha, beta, gamma, c, b = (par(n) for n in ("alpha", "beta", "gamma", "c", "b"))


def _report(n, title):
    print(f"[acceptance] criterion {n} ({title}): PASS")


def test_criterion_1_theorem_1():
    """Symmetry residuals for Q1..Q4 and the exact point-ansatz spans."""
    eq_a = gke(FunctionSpec.abstract())
    eq_l = gke(FunctionSpec.linear())
    eq_g = gke(FunctionSpec.log_shift())
    q1 = u(5) + b * u(3) + fn("f") * u(1)
    q2 = u(1)
    q3 = t() * u(1) + 1 / alpha
    q4 = t() * u(1) + (u(0) + c) / gamma
    assert symmetry_residual(eq_a, q1).is_zero
    assert symmetry_residual(eq_a, q2).is_zero
    assert symmetry_residual(eq_l, specialize_f(q3, eq_l.fspec)).is_zero
    assert symmetry_residual(eq_g, specialize_f(q4, eq_g.fspec)).is_zero
    basis = point_symmetry_basis()
    span_a = solve_linear_ansatz(eq_a, basis, "symmetry")
    assert span_a == [q2]
    span_l = solve_linear_ansatz(eq_l, basis, "symmetry")
    assert set(span_l) == {q2, q3}
    span_g = solve_linear_ansatz(eq_g, basis, "symmetry")
    assert set(span_g) == {q2, q4}
    _report(1, "Theorem 1 reproduction")


def test_criterion_2_theorem_2():
    """Densities, reconstructed fluxes, characteristic orders, printed diffs."""
    syms, dens = verify_catalog()
    by_label = {d.label: d for d in dens}
    assert [d.label for d in dens] == ["rho1", "rho2", "rho3", "rho4"]
    for d in dens:
        assert d.verified, d.label
        assert d.flux_reconstructed
        eq = gke(FunctionSpec.abstract() if d.domain == "abstract"
                 else FunctionSpec.linear())
        resid = total_t(d.rho, eq) - total_x(d.flux)
        assert resid.is_zero
        assert order(d.characteristic) <= 4
        # the structured diff against the printed flux is always available
        assert d.flux_diff_vs_printed is not None
    # agreement with the printed fluxes is NOT required, but the diffs are
    # reported: sigma3 agrees exactly, sigma1 does not (r(u) was printed as
    # f'(u) u^2/2)
    assert by_label["rho3"].flux_diff_vs_printed.is_zero
    assert not by_label["rho1"].flux_diff_vs_printed.is_zero
    _report(2, "Theorem 2 reproduction")


def test_criterion_3_theorem_3():
    """Obstruction scans at rank 13 for abstract f, f=u^3 and f=u^2."""
    K = u(5) + b * u(3) + fn("f") * u(1)
    # (a) abstract f: the xi^-3 constraint pair of the proof
    eq = gke(FunctionSpec.abstract())
    rep = formal_symmetry_scan(eq, 13)
    assert rep.obstruction_index == -3 and rep.obstruction == "g = 0"
    last = rep.steps[-1]
    pair = {-fn("f", 3) * unk("g") / 5,
            Fraction(3, 25) * fn("f", 1) * unk("g", 1)}
    assert pair <= set(last.reduced_constraints)
    for constraint in last.reduced_constraints:
        if constraint not in pair:
            gens = constraint.generators()
            assert unk("g").generators() <= gens
            assert any(g.kind == 3 and g.name == "f" and g.index >= 3
                       for g in gens)
    # (b) f = u^3: g forced to zero at the xi^-3 step
    spec3 = FunctionSpec.polynomial([0, 0, 0, 1])
    eq3 = gke(spec3)
    rep3 = formal_symmetry_scan(eq3, 13)
    assert rep3.obstruction_index == -3 and rep3.obstruction == "g = 0"
    # (c) f = u^2: transcript milestones in order, terminal at xi^-7
    eq2 = gke(FunctionSpec.quadratic())
    rep2 = formal_symmetry_scan(eq2, 13)
    assert rep2.obstruction_index == -7 and rep2.obstruction == "g = 0"
    transcript = " | ".join(" ; ".join(s.forced) for s in rep2.steps)
    i_g = transcript.index("g is constant")
    i_l0 = transcript.index("l0 is constant")
    i_g0 = transcript.index("g = 0")
    assert i_g < i_l0 < i_g0
    _report(3, "Theorem 3 reproduction")


def test_criterion_4_lemma_2_ranks():
    """rank(hat D_Q) >= order + 4 for the verified catalog symmetries."""
    eq = gke(FunctionSpec.abstract())
    q1 = u(5) + b * u(3) + fn("f") * u(1)
    for Q, s in ((q1, 5), (u(1), 1)):
        assert symmetry_residual(eq, Q).is_zero
        r = rank_of(eq, frechet_hat(Q))
        assert r.unbounded or r.value >= s + 4, (Q, r)
    _report(4, "Lemma 2 rank bound")


def test_criterion_5_lemma_1_chain():
    """D_x(euler(rho)) is a verified symmetry for each catalog density."""
    syms, dens = verify_catalog()
    q1 = u(5) + b * u(3) + fn("f") * u(1)
    for d in dens:
        eq = gke(FunctionSpec.abstract() if d.domain == "abstract"
                 else FunctionSpec.linear())
        Q = symmetry_from_density(d.rho)
        assert symmetry_residual(eq, Q).is_zero, d.label
    rho3 = next(d for d in dens if d.label == "rho3")
    eq = gke(FunctionSpec.abstract())
    assert (symmetry_from_density(rho3.rho) - q1).is_zero
    _report(5, "Lemma 1 chain")


def _rand_series(rng, slots=3, tops=(-2, 2)):
    pool = [as_expr(1), as_expr(2), u(0), u(1), par("b")]
    top = rng.randint(*tops)
    coeffs = {top: rng.choice(pool)}
    for i in range(top - 1, top - slots, -1):
        if rng.random() < 0.7:
            coeffs[i] = rng.choice(pool)
    return PsdSeries.from_coeffs(coeffs, exact=False, bottom=top - slots + 1)


def test_criterion_6_property_suites():
    """Randomized algebra suites, >= 200 cases each, fixed seeds."""
    # compose associativity
    rng = random.Random(101)
    for _ in range(200):
        A, B, C = (_rand_series(rng) for _ in range(3))
        assert agrees(compose(compose(A, B), C), compose(A, compose(B, C)))
    # adjoint anti-homomorphism
    rng = random.Random(102)
    for _ in range(200):
        A, B = (_rand_series(rng) for _ in range(2))
        assert agrees(adjoint(compose(A, B)), compose(adjoint(B), adjoint(A)))
    # Jacobi identity
    rng = random.Random(103)
    for _ in range(200):
        A, B, C = (_rand_series(rng, slots=3) for _ in range(3))
        s = commutator(A, commutator(B, C))
        s = s + commutator(B, commutator(C, A))
        s = s + commutator(C, commutator(A, B))
        assert s.is_zero_on_window()
    # root round-trip, degrees 2, 3, 5
    rng = random.Random(104)
    pool = [as_expr(1), u(0), u(1), par("b")]
    cases = 0
    while cases < 200:
        for n in (2, 3, 5):
            coeffs = {n: as_expr(1)}
            for i in range(n - 1, n - 4, -1):
                if rng.random() < 0.8:
                    coeffs[i] = rng.choice(pool)
            A = PsdSeries.from_coeffs(coeffs, exact=True)
            R = nth_root(A, n, slots=5)
            assert agrees(series_power(R, n, slots=5), A)
            cases += 1
    # euler annihilates total derivatives
    rng = random.Random(105)
    for _ in range(200):
        G = random_expr(rng)
        assert euler(total_x(G)).is_zero
    # D_x and D_t commute on the equation
    eq = gke(FunctionSpec.abstract())
    rng = random.Random(106)
    for _ in range(200):
        e = random_expr(rng)
        assert total_t(total_x(e), eq) == total_x(total_t(e, eq))
    # formal integration round trip
    rng = random.Random(107)
    pool = gen_pool(jets=3, with_f=False)
    for _ in range(200):
        G = random_expr(rng, pool=pool)
        F = total_x(G)
        zeta, res = formal_x_integrate(F)
        assert in_ker_dx(res)
        assert total_x(zeta) == F - res
    _report(6, "randomized algebra property suites")


GOLDEN_CASES = [
    ("theorem1_abstract.txt", ["kawahara", "verify", "--theorem", "1", "--f", "abstract"]),
    ("theorem1_linear.txt", ["kawahara", "verify", "--theorem", "1", "--f", "linear:alpha,beta"]),
    ("theorem1_log.txt", ["kawahara", "verify", "--theorem", "1", "--f", "log:gamma,delta,c"]),
    ("theorem2_abstract.txt", ["kawahara", "verify", "--theorem", "2", "--f", "abstract"]),
    ("theorem2_linear.txt", ["kawahara", "verify", "--theorem", "2", "--f", "linear:alpha,beta"]),
    ("theorem2_log.txt", ["kawahara", "verify", "--theorem", "2", "--f", "log:gamma,delta,c"]),
    ("theorem3_abstract.txt", ["kawahara", "verify", "--theorem", "3", "--f", "abstract"]),
    ("theorem3_quadratic.txt", ["kawahara", "verify", "--theorem", "3", "--f", "quadratic"]),
]


def test_criterion_7_cli_goldens(capsys):
    """Byte-identical verify reports, round-trips and the exit-code contract."""
    # parse/print round-trip over the full verified catalog
    syms, dens = verify_catalog()
    exprs = [s.Q for s in syms] + [d.rho for d in dens] + [d.flux for d in dens]
    for e in exprs:
        assert parse(print_expr(e)) == e
        assert repr(e) == print_expr(e)
    # committed golden reports, byte for byte
    for fname, argv in GOLDEN_CASES:
        code = main(argv)
        out = capsys.readouterr().out
        expected = (GOLDEN / fname).read_text()
        assert out == expected, f"golden mismatch for {fname}"
        assert code == 0
    # exit-code contract
    assert main(["symmetry", "u_x", "--eq",
                 str(Path(__file__).parent / "data" / "gke_abstract.json")]) == 0
    capsys.readouterr()
    assert main(["symmetry", "u", "--eq",
                 str(Path(__file__).parent / "data" / "gke_abstract.json")]) == 1
    capsys.readouterr()
    assert main(["euler", "u_x + "]) == 2
    capsys.readouterr()
    _report(7, "CLI golden files and exit codes")
