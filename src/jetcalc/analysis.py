"""Symmetry and conservation-law machinery.

Residual checks for generalized symmetries, the one density verdict
(``check_density``), density triviality, the density-to-symmetry map through
the Hamiltonian operator D_x, the formal-symmetry rank test, the coefficient-extraction obstruction
scan for evolution equations whose leading coefficient is a rational
constant, and ``linear_relations``, the one sparse elimination over the
parameter field: it solves the linear ansatz (``solve_linear_ansatz``) and
decides the case split of Theorem 1 (``kawahara.linear_dependence_gate``).
The scan's forcings are one dict, ``ScanReport.zero_from`` (unknown -> lowest
vanishing t-derivative order), and ``vanish`` imposes them by dropping terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .calculus import (
    NEG_INF,
    EvolutionEquation,
    euler,
    formal_x_integrate,
    frechet,
    frechet_hat,
    total_t,
    total_x,
)
from .errors import InsufficientPrecision, NotConserved, UnsupportedEquationShape
from .expr import JetExpr, ONE_EXPR, ZERO_EXPR, as_expr, partial, unk
from .poly import (
    EMPTY_MONO,
    KIND_FN,
    KIND_JET,
    KIND_PARAM,
    KIND_UNKNOWN,
    KIND_X,
    ONE as POLY_ONE,
    ZERO as POLY_ZERO,
    div_exact,
    jet,
    mono_sort_key,
)
from .series import PsdSeries, commutator, commutator_coeff, dt_series, dx_towers


# -- basic verifiers ---------------------------------------------------------


def symmetry_residual(eq: EvolutionEquation, Q: JetExpr) -> JetExpr:
    """D_t(Q) - D_K(Q); zero iff Q is a generalized-symmetry characteristic."""
    Q = as_expr(Q)
    return total_t(Q, eq) - frechet(eq.rhs, Q)


def conservation_residual(eq: EvolutionEquation, rho: JetExpr, sigma: JetExpr) -> JetExpr:
    """D_t(rho) - D_x(sigma)."""
    return total_t(as_expr(rho), eq) - total_x(as_expr(sigma))


def check_density(eq: EvolutionEquation, rho: JetExpr) -> tuple:
    """Is D_t(rho), taken once, a total x-derivative, and what is its flux?

    Returns (conserved, sigma, D_t(rho) - D_x(sigma)).  With a zero residual
    from ``formal_x_integrate`` the antiderivative is the flux sigma and the
    verdict is that exact check; otherwise the Euler test decides (Olver,
    Thm 4.7), and sigma and the check are None.

    sigma is fixed up to ker D_x by the integrator's choices: antiderivatives
    in u are built on powers of u, or on powers of u+c where u+c divides the
    denominator, each with a zero constant.  So a flux may carry terms that
    depend only on t and the parameters, such as the -c*gamma in the flux of
    rho = u on the log branch.
    """
    dt_rho = total_t(as_expr(rho), eq)
    zeta, rest = formal_x_integrate(dt_rho, eq.fspec.shifted)
    if rest.is_zero:
        residual = dt_rho - total_x(zeta)
        return residual.is_zero, zeta, residual
    return euler(dt_rho).is_zero, None, None


def is_conserved_density(eq: EvolutionEquation, rho: JetExpr) -> bool:
    """True when D_t(rho) is a total x-derivative (``check_density``)."""
    conserved, _, _ = check_density(eq, rho)
    return conserved


def reconstruct_flux(eq: EvolutionEquation, rho: JetExpr) -> JetExpr:
    """The flux sigma with D_t(rho) = D_x(sigma) of ``check_density``."""
    _, flux, _ = check_density(eq, rho)
    if flux is None:
        raise NotConserved("not conserved, or its flux lies outside the integrator's class")
    return flux


def is_trivial_density(rho: JetExpr) -> bool:
    """True when rho itself is a total x-derivative (equivalent to zero),
    i.e. when its variational derivative vanishes."""
    return euler(as_expr(rho)).is_zero


def symmetry_from_density(rho: JetExpr) -> JetExpr:
    """Hamiltonian map density -> symmetry characteristic: D_x(delta rho/ delta u)."""
    return total_x(euler(as_expr(rho)))


# -- formal symmetries --------------------------------------------------------


def formal_symmetry_residual(eq: EvolutionEquation, L: PsdSeries,
                             slots: int | None = None) -> PsdSeries:
    """D_t(L) - [hat D_K, L], the rank-test series."""
    return dt_series(L, eq) - commutator(frechet_hat(eq.rhs), L, slots)


@dataclass(frozen=True)
class RankResult:
    """Outcome of the rank test; ``unbounded`` when the residual vanishes
    identically, ``at_least`` when it vanishes through the whole guaranteed
    window."""
    value: int | None
    at_least: bool = False
    unbounded: bool = False

    def __repr__(self):
        if self.unbounded:
            return "rank(unbounded)"
        return f"rank({'>=' if self.at_least else '=='}{self.value})"


def rank_of(eq: EvolutionEquation, L: PsdSeries, require: int | None = None,
            slots: int | None = None) -> RankResult:
    """Largest verifiable k with deg(D_t L - [hat D_K, L]) <= deg L + n - k."""
    m = L.degree()
    if m is NEG_INF:
        return RankResult(None, unbounded=True)
    n = eq.order
    res = formal_symmetry_residual(eq, L, slots)
    d = res.degree()
    if d is not NEG_INF:
        return RankResult(m + n - d)
    if res.exact:
        return RankResult(None, unbounded=True)
    k = m + n - (res.floor - 1)
    if require is not None and k < require:
        raise InsufficientPrecision(
            f"residual window certifies rank >= {k} < required {require}")
    return RankResult(k, at_least=True)


# -- constraint bookkeeping for the obstruction scan --------------------------


def split_by_free_monomials(e: JetExpr,
                            free_kinds=(KIND_X, KIND_JET, KIND_FN)) -> list[JetExpr]:
    """The coefficients of e over the monomials in the 'free' generators (by
    default x, jets and function symbols), in the monomial order; they keep
    parameters and the scan unknowns.

    Identical vanishing of e as a differential function is equivalent to the
    vanishing of every coefficient, because the free generators are
    algebraically independent coordinates.

    A factor of a part is free of the free generators, so when one of the
    denominator's coefficients over them is a constant, no part needs reducing.
    """
    e = as_expr(e)
    free = {g for g in e.num.generators() | e.den.generators() if g.kind in free_kinds}
    parts = e.num.split(free)
    coprime = any(d.is_const() for d in e.den.split(free).values())
    return [JetExpr(parts[m], e.den) if coprime else JetExpr._reduce(parts[m], e.den)
            for m in sorted(parts, key=mono_sort_key, reverse=True)]


def vanish(e: JetExpr, zero_from: dict[str, int]) -> JetExpr:
    """e with d^k name/dt^k = 0 for every k >= zero_from[name]: the scan's
    unknowns enter numerators only (it divides by no expression but the
    rational constant n*a_n), so this drops the numerator terms holding one."""
    e = as_expr(e)
    gone = {g for g in e.num.generators() if g.kind == KIND_UNKNOWN
            and g.name in zero_from and g.index >= zero_from[g.name]}
    if not gone:
        return e
    return JetExpr._reduce(e.num.split(gone).get(EMPTY_MONO, POLY_ZERO), e.den)


@dataclass
class ScanStep:
    xi_index: int
    coefficient_name: str
    reduced_constraints: list[JetExpr] = field(default_factory=list)
    forced: list[str] = field(default_factory=list)
    solved_coefficient: JetExpr | None = None
    notes: list[str] = field(default_factory=list)


@dataclass
class ScanReport:
    target_rank: int
    steps: list[ScanStep] = field(default_factory=list)
    obstruction_index: int | None = None
    obstruction: str = ""
    survived: bool = False
    coefficients: dict[int, JetExpr] = field(default_factory=dict)
    # forced unknown -> lowest t-derivative order that vanishes (0: itself)
    zero_from: dict[str, int] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if self.survived:
            return f"SurvivedToRank({self.target_rank})"
        return f"ObstructionFound(xi^{self.obstruction_index}: {self.obstruction})"


def _force_from_constraint(coeff: JetExpr) -> tuple[str, int] | None:
    """The (name, order) of the unknown that a vanishing coefficient, free of
    x, jets and function symbols, forces to zero; None when it is zero.

    Supports the triangular shape the proof produces: a sum whose monomials
    share exactly one unknown, which then must vanish, parameters being
    transcendental.  Anything else is refused rather than guessed.
    """
    if coeff.is_zero:
        return None
    terms = [{g for g, _e in mono if g.kind != KIND_PARAM} for mono, _ in coeff.num.items()]
    if any(g.kind != KIND_UNKNOWN for gens in terms for g in gens):
        raise UnsupportedEquationShape(f"constraint coefficient {coeff!r} depends on t")
    if not all(terms):
        raise UnsupportedEquationShape(
            f"inconsistent constraint: nonzero term of {coeff!r} has no unknown")
    common = set.intersection(*terms)
    if len(common) != 1:
        raise UnsupportedEquationShape(f"constraint {coeff!r} couples several unknowns")
    (g,) = common
    return g.name, g.index


def formal_symmetry_scan(eq: EvolutionEquation, target_rank: int = 13) -> ScanReport:
    """Stepwise coefficient extraction for a degree-1 formal symmetry.

    Follows the nonexistence proof, which is the formal-symmetry recursion
    (Mikhailov, Shabat & Sokolov, in *What is Integrability?*, 1991) for
    u_t = K of order n whose leading coefficient a_n = dK/du_n is a rational
    constant: L = g xi + sum l_i xi^-i with g and the l_i initially arbitrary
    differential functions.  The xi^m coefficient of D_t(L) - [hat D_K, L]
    involves the not-yet-solved coefficient a_(m-n+1) only through
    -n a_n D_x(a_(m-n+1)), so each index yields one equation
    -n a_n D_x(coeff) = F solved by formal integration.  Integration leaves
    F = D_x(zeta) + res, so only a nonzero residual takes the Euler exactness
    test (euler(F) = euler(res)), whose failure emits constraints on the scan
    unknowns; they are imposed on res, and stripping resumes from it.
    F is read at each step as the xi^m coefficient of D_t(L) - [hat D_K, L]
    for the solved part of L, so a step does not depend on the target rank:
    that only sets where the scan stops, at xi-index n + 1 - target_rank (one
    step per rank; indices 5 .. -7 for the Kawahara equation at rank 13, the
    proof's step count).

    An equation written in w = u + c (``FunctionSpec.in_w``) is scanned in w.
    The constraints and forcings are read off monomials in u, and the report
    holds expressions in u, so both are translated back first.
    """
    user = eq.fspec.from_coordinate
    n = eq.order
    a_n = partial(eq.rhs, jet(n))
    if not a_n.is_rational_const:
        raise UnsupportedEquationShape("leading coefficient must be a rational constant")
    if target_rank < 13:
        raise UnsupportedEquationShape("scan supports target ranks >= 13")
    lead = n * a_n  # D_x(a_(m-n+1)) enters the xi^m coefficient times -lead
    dk, dx = frechet_hat(eq.rhs), dx_towers()
    floor = n + 1 - target_rank  # lowest xi-index whose coefficient is equated to zero
    report = ScanReport(target_rank=target_rank)
    zero_from = report.zero_from
    solved: dict[int, JetExpr] = {}

    for m in range(n, floor - 1, -1):
        new_idx = m - n + 1
        name = "g" if new_idx == 1 else f"l{-new_idx}"
        F = vanish(total_t(solved.get(m, ZERO_EXPR), eq)
                   - commutator_coeff(dk, solved, m, dx), zero_from)
        step = ScanStep(xi_index=m, coefficient_name=name)
        report.steps.append(step)

        # solve -lead D_x(a) = -F  i.e.  lead D_x(a) = F.  F = D_x(zeta) + res,
        # so F/lead is exact iff res/lead has zero variational derivative;
        # else constraints, and stripping resumes from res with them imposed
        zeta, res = formal_x_integrate(F, eq.fspec.shifted)
        while not res.is_zero:
            obstruction_expr = euler(res / lead)
            if obstruction_expr.is_zero:
                raise UnsupportedEquationShape(
                    f"irreducible residual {user(res)!r} in the coefficient equation")
            obstruction_expr = user(obstruction_expr)
            for coeff in split_by_free_monomials(obstruction_expr, free_kinds=(KIND_X, KIND_JET)):
                if coeff not in step.reduced_constraints:
                    step.reduced_constraints.append(coeff)
            forced_before = len(step.forced)
            for coeff in split_by_free_monomials(obstruction_expr):
                # vanish cleared every order >= zero_from, so a forcing lowers it
                forced = _force_from_constraint(vanish(coeff, zero_from))
                if forced is not None:
                    uname, uorder = forced
                    zero_from[uname] = uorder
                    step.forced.append(f"{uname} = 0" if uorder == 0 else
                                       f"{uname} is constant" if uorder == 1 else
                                       f"{uname} is polynomial in t of degree < {uorder}")
            if zero_from.get("g") == 0:
                report.obstruction_index = m
                report.obstruction = "g = 0"
                step.notes.append("g = 0 contradicts deg L = 1")
                report.coefficients = {i: user(vanish(c, zero_from)) for i, c in solved.items()}
                return report
            if len(step.forced) == forced_before:
                raise UnsupportedEquationShape(
                    "exactness constraints did not determine any unknown")
            # vanishing commutes with D_t, D_x and the ring operations (the
            # unknowns are x-constants), so F need not be recomputed from the
            # forced coefficients, nor stripped again from the top
            solved = {i: vanish(c, zero_from) for i, c in solved.items()}
            more, res = formal_x_integrate(vanish(res, zero_from), eq.fspec.shifted)
            zeta = vanish(zeta, zero_from) + more

        # normalization: a constant l0 is a trivial formal symmetry
        if zero_from.get("l0") == 1 and solved.get(0) == unk("l0"):
            zero_from["l0"] = 0
            solved = {i: vanish(c, zero_from) for i, c in solved.items()}
            zeta = vanish(zeta, zero_from)
            step.notes.append("l0 set to 0 (constants are trivial formal symmetries)")

        a_new = zeta / lead + unk(name)  # zeta is vanished: it holds no forced unknown
        solved[new_idx] = a_new
        if a_new == unk(name):
            step.notes.append(f"{name} is a function of t only")
        step.solved_coefficient = user(a_new)

    report.survived = True
    report.coefficients = {i: user(c) for i, c in solved.items()}
    return report


# -- linear relations and the ansatz solver ------------------------------------


def linear_relations(exprs: list[JetExpr]) -> list[list[JetExpr]]:
    """The linear relations sum c_j exprs_j = 0 with c_j in Q(params), as the
    reduced-row-echelon nullspace basis: one relation per expression that
    depends on the ones before it, 1 at that expression and nonzero only at
    earlier independent ones.

    Over a common denominator each expression is a sparse vector, packed
    monomial in the non-parameter generators -> coefficient in Q(params).
    It is reduced against the pivots of the earlier expressions, carrying
    its combination of them; a vector reduced to zero leaves a relation.
    """
    exprs = [as_expr(e) for e in exprs]
    den = prod({e.den for e in exprs}, start=POLY_ONE)  # a common multiple
    pivots = []  # (monomial, row that is 1 there, combination giving the row)
    relations = []
    for j, e in enumerate(exprs):
        num = e.num * div_exact(den, e.den)
        free = {g for g in num.generators() if g.kind != KIND_PARAM}
        row = {m: JetExpr(c, POLY_ONE) for m, c in num.split(free).items()}
        comb = {j: ONE_EXPR}
        for m, prow, pcomb in pivots:
            c = row.get(m)
            if c is not None:
                _subtract(row, c, prow)
                _subtract(comb, c, pcomb)
        if row:
            m = max(row, key=mono_sort_key)  # the leading monomial keeps fill-in low
            lead = row[m]
            pivots.append((m, {k: v / lead for k, v in row.items()},
                           {k: v / lead for k, v in comb.items()}))
        else:
            relations.append([comb.get(i, ZERO_EXPR) for i in range(len(exprs))])
    return relations


def _subtract(vec: dict, c: JetExpr, other: dict) -> None:
    """vec -= c * other in place, dropping the entries that cancel."""
    for k, v in other.items():
        s = vec.get(k, ZERO_EXPR) - c * v
        if s.is_zero:
            vec.pop(k, None)
        else:
            vec[k] = s


def solve_linear_ansatz(eq: EvolutionEquation, basis: list[JetExpr],
                        mode: str = "symmetry") -> list[JetExpr]:
    """Solve for scalar constants c_j with Q = sum c_j basis_j a symmetry
    characteristic (mode 'symmetry') or a conserved density by the Euler
    test (mode 'density').  Parameters are treated as transcendental; the
    generic branch is returned."""
    basis = [as_expr(b) for b in basis]
    if mode == "symmetry":
        residuals = [symmetry_residual(eq, b) for b in basis]
    elif mode == "density":
        residuals = [euler(total_t(b, eq)) for b in basis]
    else:
        raise ValueError("mode must be 'symmetry' or 'density'")
    out = []
    for vec in linear_relations(residuals):
        lead = next(v for v in vec if not v.is_zero)  # vec is 1 at its free column
        out.append(JetExpr.sum((c / lead) * b for c, b in zip(vec, basis)))
    return out
