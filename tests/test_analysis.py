import inspect
import random
import textwrap
from fractions import Fraction

import pytest

import jetcalc.analysis as analysis_module
import jetcalc.expr as expr_module
from jetcalc import (
    InsufficientPrecision,
    NotConserved,
    UnsupportedEquationShape,
)
from jetcalc.analysis import (
    _force_from_constraint,
    conservation_residual,
    formal_symmetry_residual,
    formal_symmetry_scan,
    is_conserved_density,
    is_trivial_density,
    linear_relations,
    rank_of,
    reconstruct_flux,
    solve_linear_ansatz,
    split_by_free_monomials,
    symmetry_from_density,
    symmetry_residual,
    vanish,
)
from jetcalc.calculus import EvolutionEquation, euler, frechet_hat, total_t, total_x
from jetcalc.dsl import parse
from jetcalc.expr import (
    ZERO_EXPR, FunctionSpec, JetExpr, as_expr, fn, par, specialize_f, substitute_map, t, u, unk, x,
)
from jetcalc.poly import KIND_FN, KIND_JET, KIND_UNKNOWN, KIND_X, mono_sort_key
from jetcalc.series import PsdSeries, nth_root

from conftest import gen_pool, random_expr

b, alpha, beta = par("b"), par("alpha"), par("beta")


def test_symmetry_residual_translations(eq_abstract):
    # space translation
    assert symmetry_residual(eq_abstract, u(1)).is_zero
    # time translation: the right-hand side itself
    assert symmetry_residual(eq_abstract, eq_abstract.rhs).is_zero


def test_symmetry_residual_u_is_not_a_symmetry(eq_abstract):
    got = symmetry_residual(eq_abstract, u(0))
    assert got == -fn("f", 1) * u(0) * u(1)


def test_symmetry_residual_galilean(eq_linear):
    q3 = t() * u(1) + 1 / alpha
    assert symmetry_residual(eq_linear, q3).is_zero


def test_conservation_residual(eq_abstract):
    sigma1 = u(4) + b * u(2) + fn("r")
    assert conservation_residual(eq_abstract, u(0), sigma1).is_zero
    assert conservation_residual(eq_abstract, u(0), as_expr(0)) == eq_abstract.rhs


def test_is_conserved_density(eq_abstract):
    assert is_conserved_density(eq_abstract, u(0) ** 2)
    rho3 = (u(2) ** 2 - b * u(1) ** 2) / 2 + fn("rhat")
    assert is_conserved_density(eq_abstract, rho3)
    assert not is_conserved_density(eq_abstract, u(0) ** 3)
    assert not is_conserved_density(eq_abstract, u(1) ** 2)


def test_reconstruct_flux_rho1(eq_abstract):
    sigma = reconstruct_flux(eq_abstract, u(0))
    assert sigma == u(4) + b * u(2) + fn("r")
    # the README's library example prints exactly its comment
    assert repr(sigma) == "u_4x + b*u_xx + r(u)"


def test_reconstruct_flux_rho2_quadratic(eq_quadratic):
    sigma = reconstruct_flux(eq_quadratic, u(0) ** 2)
    assert conservation_residual(eq_quadratic, u(0) ** 2, sigma).is_zero
    expected = (2 * u(0) * u(4) - 2 * u(1) * u(3) + u(2) ** 2
                + 2 * b * u(0) * u(2) - b * u(1) ** 2 + u(0) ** 4 / 2)
    assert sigma == expected


def test_reconstruct_flux_requires_conservation(eq_abstract):
    with pytest.raises(NotConserved):
        reconstruct_flux(eq_abstract, u(0) ** 3)


def test_characteristic_of_density():
    # equivalent conservation laws share the Euler characteristic of their density
    assert euler(u(0) ** 2) == 2 * u(0)
    rho3 = (u(2) ** 2 - b * u(1) ** 2) / 2 + fn("rhat")
    assert euler(rho3) == u(4) + b * u(2) + fn("r")
    rho4_printed = x() * u(0) + alpha * t() * u(0) ** 2 / 2
    assert euler(rho4_printed) == x() + alpha * t() * u(0)


def test_is_trivial_density():
    assert is_trivial_density(u(1))
    assert not is_trivial_density(u(0))
    assert is_trivial_density(u(0) * u(2) + u(1) ** 2)


def test_trivial_density_outside_the_integrators_class():
    # D_x of int f^2 du and of arctan u: no antiderivative in the
    # integrator's class, but the Euler operator vanishes on both
    assert is_trivial_density(fn("f") ** 2 * u(1))
    assert is_trivial_density(u(1) / (u(0) ** 2 + 1))
    assert not is_trivial_density(u(1) ** 2 / (u(0) ** 2 + 1))


def test_conserved_density_with_flux_outside_the_class():
    # u_t = u_xxx + u_x/(1+u^2): D_t u = D_x(u_xx + arctan u)
    eq = EvolutionEquation(u(3) + u(1) / (1 + u(0) ** 2))
    assert is_conserved_density(eq, u(0))
    assert not is_conserved_density(eq, u(0) ** 3)
    with pytest.raises(NotConserved, match="outside the integrator's class"):
        reconstruct_flux(eq, u(0))


def test_triviality_preserves_characteristic():
    rng = random.Random(47)
    for _ in range(40):
        rho = random_expr(rng)
        shift = total_x(random_expr(rng))
        assert is_trivial_density(shift)
        assert euler(rho + shift) == euler(rho)


def test_symmetry_from_density(eq_linear):
    rho3 = (u(2) ** 2 - b * u(1) ** 2) / 2 + fn("rhat")
    q1 = u(5) + b * u(3) + fn("f") * u(1)
    assert symmetry_from_density(rho3) == q1
    assert symmetry_from_density(u(0)).is_zero
    rho4 = x() * u(0) + alpha * t() * u(0) ** 2 / 2 + beta * t() * u(0)
    got = symmetry_from_density(rho4)
    q3 = t() * u(1) + 1 / alpha
    assert got == alpha * q3
    assert symmetry_residual(eq_linear, got).is_zero


def test_lemma1_chain_on_catalog(eq_abstract):
    # every conserved density maps to a symmetry characteristic through D_x
    for rho in (u(0), u(0) ** 2,
                (u(2) ** 2 - b * u(1) ** 2) / 2 + fn("rhat")):
        Q = symmetry_from_density(rho)
        assert symmetry_residual(eq_abstract, Q).is_zero


def test_formal_symmetry_residual_of_linearization(eq_abstract):
    dk = frechet_hat(eq_abstract.rhs)
    res = formal_symmetry_residual(eq_abstract, dk)
    assert res.degree() == 1


def test_formal_symmetry_residual_constant(eq_abstract):
    res = formal_symmetry_residual(eq_abstract, PsdSeries.const(1))
    assert res.degree() is not None
    assert res.is_zero_on_window()


def test_formal_symmetry_residual_xi(eq_abstract):
    res = formal_symmetry_residual(eq_abstract, PsdSeries.xi(1), slots=8)
    assert res.coeff(1) == total_x(fn("f"))
    assert res.coeff(0) == total_x(fn("f", 1) * u(1))
    assert res.degree() == 1


def test_rank_of(eq_abstract):
    dk = frechet_hat(eq_abstract.rhs)
    r = rank_of(eq_abstract, dk)
    assert r.value == 9 and not r.at_least
    r2 = rank_of(eq_abstract, frechet_hat(u(1)))
    assert r2.value == 5
    rc = rank_of(eq_abstract, PsdSeries.const(u(0) * 0 + 1))
    assert rc.unbounded
    rxi = rank_of(eq_abstract, PsdSeries.xi(1))
    assert rxi.value == 1 + 5 - 1


def test_rank_of_window_verdict():
    # on u_t = u_xxx the residual of the cube root of hat D_K vanishes through
    # the whole window of a 6-slot root, so the rank is only bounded below
    eq = EvolutionEquation(u(3))
    r = rank_of(eq, nth_root(frechet_hat(eq.rhs), 3, slots=6))
    assert (r.value, r.at_least, r.unbounded) == (6, True, False)
    assert repr(r) == "rank(>=6)"


def test_rank_of_insufficient_precision(eq_abstract):
    L = PsdSeries.from_coeffs({1: as_expr(1)}, exact=False, bottom=1)
    with pytest.raises(InsufficientPrecision):
        rank_of(eq_abstract, L, require=13)


def test_split_by_free_monomials():
    # one coefficient per monomial in x, jets and f-symbols, in monomial order
    e = unk("g") * fn("f", 3) * u(1) + 3 * unk("g", 1) * par("b")
    assert split_by_free_monomials(e) == [unk("g"), 3 * unk("g", 1) * par("b")]
    # the narrative's split keeps f-symbols in the coefficients
    assert split_by_free_monomials(e, free_kinds=(KIND_X, KIND_JET)) == \
        [unk("g") * fn("f", 3), 3 * unk("g", 1) * par("b")]


def _split_reference(e, free_kinds):
    # split_by_free_monomials as it stood before its shortcut: every part
    # reduced against the denominator by _reduce
    parts = e.num.split({g for g in e.num.generators() if g.kind in free_kinds})
    return [JetExpr._reduce(parts[m], e.den) for m in sorted(parts, key=mono_sort_key, reverse=True)]


def _split_always_coprime():
    """A mutant of split_by_free_monomials that never reduces a part."""
    src = textwrap.dedent(inspect.getsource(split_by_free_monomials))
    mutant = src.replace("coprime = any(d.is_const() for d in e.den.split(free).values())",
                         "coprime = True")
    assert mutant != src
    namespace = dict(vars(analysis_module))
    exec(mutant, namespace)
    return namespace["split_by_free_monomials"]


SPLIT_DENOMINATORS = {
    "(u+c)^k": lambda k: (u(0) + par("c")) ** k,
    # gamma can cancel against a part, so no coefficient over the free
    # monomials is a constant and every part is reduced
    "gamma*(u+c)^k": lambda k: par("gamma") * (u(0) + par("c")) ** k,
    "(u+c)^k*(u_x+1)": lambda k: (u(0) + par("c")) ** k * (u(1) + 1),
}


@pytest.mark.parametrize("shape", sorted(SPLIT_DENOMINATORS))
def test_split_by_free_monomials_reduces_each_part(shape, monkeypatch):
    factored = []
    sqf = expr_module.squarefree_factors
    monkeypatch.setattr(expr_module, "squarefree_factors", lambda p: factored.append(p) or sqf(p))
    gamma = par("gamma")
    monomials = [as_expr(1), u(0), u(0) ** 2, u(1), u(0) * u(1), x(), fn("f"), u(2)]
    coefficients = [as_expr(1), b, gamma, gamma * b, unk("g"), gamma * unk("g", 1),
                    par("c"), gamma * par("c") + 1]
    rng = random.Random(311)
    mutant, caught = _split_always_coprime(), 0
    for case in range(60):
        num = sum((rng.choice(coefficients) * m for m in rng.sample(monomials, rng.randint(1, 4))),
                  ZERO_EXPR)
        e = num / SPLIT_DENOMINATORS[shape](rng.randint(1, 6))
        for kinds in ((KIND_X, KIND_JET), (KIND_X, KIND_JET, KIND_FN)):
            del factored[:]
            parts = split_by_free_monomials(e, free_kinds=kinds)
            # only gamma keeps every coefficient of the denominator nonconstant
            assert bool(factored) == ("gamma" in {g.name for g in e.den.generators()}), (case, e)
            assert parts == _split_reference(e, kinds), (case, e)
            caught += mutant(e, free_kinds=kinds) != parts
    # a part divisible by gamma is reduced only by _reduce
    assert (caught > 0) == (shape == "gamma*(u+c)^k")


# -- the obstruction scan -------------------------------------------------------


def test_scan_requires_rational_constant_leading_coefficient():
    eq = EvolutionEquation(u(3) / u(0) ** 3)
    with pytest.raises(UnsupportedEquationShape, match="rational constant"):
        formal_symmetry_scan(eq, 13)


def test_scan_abstract_f(eq_abstract):
    rep = formal_symmetry_scan(eq_abstract, 13)
    assert rep.obstruction_index == -3
    assert rep.obstruction == "g = 0"
    # the early steps solve -5 D_x = 0
    for step, name in zip(rep.steps, ("g", "l0", "l1", "l2")):
        assert step.coefficient_name == name
        assert step.solved_coefficient == unk(name)
        assert not step.reduced_constraints
    # the known obstruction system at xi^-3, with its exact constants:
    last = rep.steps[-1]
    assert last.xi_index == -3
    pair = {-fn("f", 3) * unk("g") / 5,
            Fraction(3, 25) * fn("f", 1) * unk("g", 1)}
    assert pair <= set(last.reduced_constraints)
    # everything else in the system is a higher-derivative multiple of g
    for c in last.reduced_constraints:
        if c in pair:
            continue
        gens = c.generators()
        assert unk("g").generators() <= gens
        assert any(g.kind == 3 and g.index >= 3 for g in gens)  # some f^(k>=3)


def test_scan_cubic_f():
    spec = FunctionSpec.polynomial([0, 0, 0, 1])
    eq = EvolutionEquation(specialize_f(u(5) + b * u(3) + fn("f") * u(1), spec), spec)
    rep = formal_symmetry_scan(eq, 13)
    assert rep.obstruction_index == -3
    assert rep.obstruction == "g = 0"


def test_scan_quadratic_f(eq_quadratic):
    rep = formal_symmetry_scan(eq_quadratic, 13)
    assert rep.obstruction_index == -7
    assert rep.obstruction == "g = 0"
    by_index = {s.xi_index: s for s in rep.steps}
    assert by_index[-3].forced == ["g is constant"]
    assert "l0 is constant" in by_index[-4].forced
    assert any("l0 set to 0" in n for n in by_index[-4].notes)
    assert by_index[-5].forced == ["l1 is constant"]
    assert by_index[-6].forced == ["l2 is constant"]
    assert "g = 0" in by_index[-7].forced
    # the milestone order of the transcript
    notes = " | ".join(" ".join(s.forced) for s in rep.steps)
    assert notes.index("g is constant") < notes.index("l0 is constant")
    assert notes.index("l0 is constant") < notes.index("g = 0")
    # the l0-constancy constraint carries the published 6/25 coefficient
    assert Fraction(6, 25) * unk("l0", 1) in by_index[-4].reduced_constraints


@pytest.mark.parametrize("branch, slots", [
    ("eq_abstract", 10), ("eq_quadratic", 40), ("eq_log", 10),
], ids=["abstract", "quadratic", "log"])
def test_scan_soundness(request, branch, slots):
    # substituted-back coefficients annihilate the residual on every solved
    # index; 10 slots reach below the abstract and log obstructions at xi^-3,
    # and res.coeff refuses an index outside the window
    from jetcalc.series import commutator, dt_series
    eq = request.getfixturevalue(branch)
    rep = formal_symmetry_scan(eq, 13)
    L = PsdSeries.from_coeffs({i: vanish(c, rep.zero_from)
                               for i, c in rep.coefficients.items()}, exact=True)
    dk = frechet_hat(eq.rhs)
    res = dt_series(L, eq) - commutator(dk, L, slots=slots)
    # indices above the one that produced the obstruction must vanish
    for i in range(5, rep.obstruction_index, -1):
        assert vanish(res.coeff(i), rep.zero_from).is_zero, f"residual at xi^{i}"


def test_vanish_matches_substitution():
    # dropping the terms that hold a forced unknown is setting it to 0, for
    # unknowns in numerators over jets, the f-chain and (u+c)^k denominators
    rng = random.Random(0)
    c = par("c")
    unknowns = [unk(name, k) for name in ("g", "l0") for k in range(4)]
    pool = gen_pool() + [fn("r"), fn("f", 2)] + unknowns
    changed = 0
    for _ in range(80):
        names = rng.sample(["g", "l0"], rng.randint(0, 2))
        zero_from = {name: rng.randint(0, 3) for name in names}
        den = (u(0) + c) ** rng.randint(0, 6) * rng.choice([as_expr(1), u(1), fn("f") + b])
        e = (random_expr(rng, pool) * (u(0) + c) + random_expr(rng, pool)) / den
        gone = {g: ZERO_EXPR for g in e.generators()
                if g.kind == KIND_UNKNOWN and g.index >= zero_from.get(g.name, 4)}
        got = vanish(e, zero_from)
        assert got == substitute_map(e, gone)
        changed += got != e
    assert changed > 20


@pytest.mark.parametrize("branch", ["abstract", "quadratic", "linear", "log", "kdv"])
def test_scan_unknowns_stay_in_numerators(request, branch):
    # vanish drops numerator terms, which is sound only while no unknown
    # reaches a denominator: the scan divides by no expression but n*a_n
    eq = (EvolutionEquation(parse("u_xxx + 6*u*u_x")) if branch == "kdv"
          else request.getfixturevalue(f"eq_{branch}"))
    rep = formal_symmetry_scan(eq, 17)
    exprs = [c for s in rep.steps for c in s.reduced_constraints]
    exprs += [s.solved_coefficient for s in rep.steps if s.solved_coefficient is not None]
    exprs += rep.coefficients.values()
    assert any(g.kind == KIND_UNKNOWN for e in exprs for g in e.num.generators())
    assert not any(g.kind == KIND_UNKNOWN for e in exprs for g in e.den.generators())
    if branch == "log":
        assert any(not e.den.is_const() for e in exprs)


def test_force_from_constraint_reads_the_shared_unknown():
    assert _force_from_constraint(b * unk("g", 1) + 3 * unk("g", 1) * unk("l0")) == ("g", 1)
    assert _force_from_constraint(ZERO_EXPR) is None


@pytest.mark.parametrize("coeff, message", [
    (unk("g") / 9 + t() * unk("g", 1) / 9,
     "constraint coefficient 1/9*g + 1/9*t*dg/dt depends on t"),
    (b * unk("g") + 1,
     "inconsistent constraint: nonzero term of b*g + 1 has no unknown"),
    (unk("g") + unk("l0"),
     "constraint g + l0 couples several unknowns"),
], ids=["t", "no-unknown", "several-unknowns"])
def test_force_from_constraint_refusals(coeff, message):
    with pytest.raises(UnsupportedEquationShape) as info:
        _force_from_constraint(coeff)
    assert str(info.value) == message


def test_characteristic_identity_off_equation():
    # frechet(rho, V) - euler(rho)*V is a total x-derivative for a fresh V:
    # the off-equation form of D_t(rho) - D_x(sigma) = P*(u_t - K)
    from jetcalc.calculus import formal_x_integrate, frechet
    from jetcalc.kawahara import verify_catalog
    syms, dens = verify_catalog()
    for d in dens:
        top = d.rho.top_jet() or 0
        V = u(top + 7)
        binder = frechet(d.rho, V) - euler(d.rho) * V
        _, residual = formal_x_integrate(binder)
        assert residual.is_zero, d.label


def test_scan_linear_branch_survives_then_obstructs():
    # the quadratic normalization divides by the leading coefficient, so the
    # linear nonlinearity is a separate branch: the triangular solve succeeds
    # through rank 14 and the g = 0 obstruction first appears at xi^-9
    eq = EvolutionEquation(
        specialize_f(u(5) + b * u(3) + fn("f") * u(1), FunctionSpec.linear()),
        FunctionSpec.linear())
    rep13 = formal_symmetry_scan(eq, 13)
    assert rep13.survived
    rep14 = formal_symmetry_scan(eq, 14)
    assert rep14.survived
    rep15 = formal_symmetry_scan(eq, 15)
    assert rep15.obstruction_index == -9
    assert rep15.obstruction == "g = 0"


@pytest.mark.parametrize("rhs, rank", [
    (None, 13),
    ("u_xxx + 6*u*u_x", 17),
    ("u_5x + 5*u*u_xxx + 5*u_x*u_xx + 5*u^2*u_x", 17),
    ("u_5x + 10*u*u_xxx + 25*u_x*u_xx + 20*u^2*u_x", 17),
    ("u_5x + 10*u*u_xxx + 20*u_x*u_xx + 30*u^2*u_x", 17),
], ids=["linear-f", "kdv", "sawada-kotera", "kaup-kupershmidt", "lax5"])
def test_scan_linear_branch_rank13_witness(eq_linear, rhs, rank):
    # independent residual check: the solved prefix really is a formal
    # symmetry of the target rank, for f = alpha*u + beta at rank 13 and for
    # the integrable controls at rank 17
    from jetcalc.series import commutator, dt_series
    eq = eq_linear if rhs is None else EvolutionEquation(parse(rhs))
    rep = formal_symmetry_scan(eq, rank)
    assert rep.survived
    L = PsdSeries.from_coeffs({i: vanish(c, rep.zero_from)
                               for i, c in rep.coefficients.items()}, exact=True)
    dk = frechet_hat(eq.rhs)
    res = dt_series(L, eq) - commutator(dk, L, slots=40)
    n = eq.order
    for i in range(n, n - rank, -1):
        assert vanish(res.coeff(i), rep.zero_from).is_zero, f"residual at xi^{i}"


@pytest.mark.parametrize("rhs, index", [
    ("u_5x + u*u_x", -9),
    ("u_5x + u^2*u_x", -7),
    ("2*u_5x + u^2*u_x", -7),
    ("u_xxx + u^3*u_x", -1),
])
def test_scan_obstructs_non_integrable_controls(rhs, index):
    rep = formal_symmetry_scan(EvolutionEquation(parse(rhs)), 17)
    assert rep.obstruction_index == index
    assert rep.obstruction == "g = 0"


def _recursion_obstruction(eq, rank):
    """Theorem 3 by a second route: the formal-symmetry recursion for
    L = xi + sum l_i xi^-i with every integration constant 0, sharing
    neither the forcings nor the constraint solver with the scan.  Returns the
    first xi-index whose coefficient equation has no local solution."""
    from jetcalc.calculus import formal_x_integrate
    from jetcalc.expr import ONE_EXPR, partial
    from jetcalc.poly import jet
    from jetcalc.series import dx_towers, product_coeff
    n = eq.order
    lead = n * partial(eq.rhs, jet(n))
    dk, dx = frechet_hat(eq.rhs), dx_towers()
    L = {1: ONE_EXPR}
    for m in range(n - 1, n - rank, -1):
        F = (total_t(L.get(m, as_expr(0)), eq) - product_coeff(dk, L, m, dx)
             + product_coeff(L, dk, m, dx))
        if not euler(F).is_zero:
            return m
        L[m - n + 1] = formal_x_integrate(F)[0] / lead
    return None


@pytest.mark.parametrize("branch, index", [
    ("eq_abstract", -3), ("eq_linear", -9), ("eq_quadratic", -7), ("eq_log", -3),
])
def test_theorem3_second_proof_route(request, branch, index):
    eq = request.getfixturevalue(branch)
    assert _recursion_obstruction(eq, 17) == index
    assert formal_symmetry_scan(eq, 17).obstruction_index == index


# -- linear ansatz ---------------------------------------------------------------


def test_ansatz_symmetry_abstract(eq_abstract):
    got = solve_linear_ansatz(eq_abstract, [u(1), u(2), u(0) * u(1)], "symmetry")
    assert got == [u(1)]


def test_ansatz_density_abstract(eq_abstract):
    got = solve_linear_ansatz(eq_abstract, [u(0), u(0) ** 2, u(1) ** 2], "density")
    assert got == [u(0), u(0) ** 2]


def test_ansatz_symmetry_linear_branch(eq_linear):
    got = solve_linear_ansatz(eq_linear, [t() * u(1), as_expr(1), u(1)], "symmetry")
    assert got == [t() * u(1) + 1 / alpha, u(1)] or got == [u(1), t() * u(1) + 1 / alpha]


def test_linear_relations_reduced_echelon_convention():
    # one relation per expression that depends on earlier ones: 1 there, and
    # nonzero only at the earlier independent expressions
    got = linear_relations([u(0), u(1), 2 * u(0), u(0) + b * u(1), as_expr(0)])
    assert got == [[as_expr(-2), as_expr(0), as_expr(1), as_expr(0), as_expr(0)],
                   [as_expr(-1), -b, as_expr(0), as_expr(1), as_expr(0)],
                   [as_expr(0), as_expr(0), as_expr(0), as_expr(0), as_expr(1)]]
    # denominators in the jets are cleared over a common multiple
    assert linear_relations([1 / (u(0) + b), u(0) / (u(0) + b), as_expr(1)]) == \
        [[-b, as_expr(-1), as_expr(1)]]


def _jet_monomials(weight: int, lowest: int = 0) -> list:
    """Every nonconstant monomial in u, u_x, u_xx, ... of weight <= weight,
    u_i weighing 2 + i, from jets of index >= lowest."""
    out = []
    for i in range(lowest, weight - 1):
        out.append(u(i))
        out.extend(u(i) * m for m in _jet_monomials(weight - 2 - i, i))
    return out


def test_graded_ansatz_quadratic_branch(eq_quadratic):
    # the graded classification in miniature: on f = u^2 the jet monomials
    # of weight <= 11 span only the translations u_x and Q1
    basis = _jet_monomials(11)
    assert len(basis) == 55
    got = solve_linear_ansatz(eq_quadratic, basis, "symmetry")
    assert got == [u(1), u(5) + b * u(3) + u(0) ** 2 * u(1)]


def test_scan_is_prefix_monotone_in_the_target_rank(eq_linear):
    # a deeper target repeats the shallower scan's steps before going on
    rep13 = formal_symmetry_scan(eq_linear, 13)
    rep15 = formal_symmetry_scan(eq_linear, 15)
    assert len(rep13.steps) == 13
    assert rep15.steps[:13] == rep13.steps
