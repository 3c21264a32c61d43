"""Differential operators on jet expressions.

total_x / total_t are the total derivatives (D_t restricted to an evolution
equation u_t = K), frechet the linearization operator, euler the variational
derivative, and formal_x_integrate a top-order stripping inverse of D_x that
reports an irreducible residual instead of failing.
"""

from __future__ import annotations

import math

from .errors import JetCalcError
from .expr import (
    FunctionSpec,
    JetExpr,
    LOG_FAMILY,
    ONE_EXPR,
    ZERO_EXPR,
    as_expr,
    derive,
    ln_shift,
    par,
    partial,
    partial_u_total,
    symbol_at_depth,
    symbol_depth,
    u,
    u_image,
)
from .poly import (
    KIND_FN,
    KIND_JET,
    KIND_T,
    KIND_UNKNOWN,
    KIND_X,
    X,
    Generator,
    _to_univariate,
    fnsym,
    jet,
    squarefree_factors,
    unknown_t,
)


# order/degree of a jet- and u-free function: the deg 0 = -oo convention.
# ``order`` and ``PsdSeries.degree`` return this very object, so callers test
# ``is NEG_INF``.
NEG_INF = -math.inf


def order_text(n) -> str:
    """An order or degree as reports print it: -oo for NEG_INF."""
    return "-oo" if n == NEG_INF else str(n)


class EvolutionEquation:
    """u_t = K(x, u, ..., u_nx) together with its order and f-specialization."""

    __slots__ = ("rhs", "order", "fspec", "_dx_cache")

    def __init__(self, rhs: JetExpr, fspec: FunctionSpec | None = None):
        rhs = as_expr(rhs)
        n = rhs.top_jet()
        if n is None or n < 2:
            raise JetCalcError("evolution equation must have order >= 2")
        for g in rhs.generators():
            if g.kind == KIND_UNKNOWN:
                raise JetCalcError("equation right-hand side cannot contain scan unknowns")
        self.rhs = rhs
        self.order = n
        self.fspec = fspec if fspec is not None else FunctionSpec.abstract()
        self._dx_cache = [rhs]

    def dx_rhs(self, i: int) -> JetExpr:
        """Cached D_x^i(K)."""
        cache = self._dx_cache
        while len(cache) <= i:
            cache.append(total_x(cache[-1]))
        return cache[i]

    def __repr__(self):
        return f"EvolutionEquation(u_t = {self.rhs!r})"


def _dx_image(g: Generator) -> JetExpr | None:
    if g.kind == KIND_X:
        return ONE_EXPR
    if g.kind == KIND_JET:
        return JetExpr.from_gen(jet(g.index + 1))
    if g.kind == KIND_FN:
        return u_image(g) * u(1)
    return None


def total_x(e: JetExpr) -> JetExpr:
    """D_x = d/dx + sum u_{(i+1)x} d/du_{ix}, with the function-symbol chain."""
    return derive(e, _dx_image)


def total_t(e: JetExpr, eq: EvolutionEquation) -> JetExpr:
    """D_t = d/dt + sum D_x^i(K) d/du_{ix}, restricted to the equation."""

    def image(g: Generator) -> JetExpr | None:
        if g.kind == KIND_T:
            return ONE_EXPR
        if g.kind == KIND_JET:
            return eq.dx_rhs(g.index)
        if g.kind == KIND_FN:
            return u_image(g) * eq.rhs
        if g.kind == KIND_UNKNOWN:
            return JetExpr.from_gen(unknown_t(g.name, g.index + 1))
        return None

    return derive(e, image)


def du_coefficient(F: JetExpr, j: int) -> JetExpr:
    """dF/du_{jx}; for j = 0 the function-symbol chain rule is folded in."""
    return derive(F, u_image) if j == 0 else partial(F, jet(j))


def order(F: JetExpr):
    """deg of the linearization symbol; NEG_INF for jet- and u-free input."""
    F = as_expr(F)
    top = F.top_jet()
    if top:
        return top  # a reduced fraction depends on every generator it holds
    if not du_coefficient(F, 0).is_zero:
        return 0
    return NEG_INF


def frechet(F: JetExpr, Q: JetExpr) -> JetExpr:
    """Linearization of F applied to Q: sum dF/du_{jx} * D_x^j(Q)."""
    F = as_expr(F)
    Q = as_expr(Q)
    n = order(F)
    if n is NEG_INF:
        return ZERO_EXPR
    total = ZERO_EXPR
    dq = Q
    for j in range(0, n + 1):
        c = du_coefficient(F, j)
        if not c.is_zero:
            total = total + c * dq
        if j < n:
            dq = total_x(dq)
    return total


def frechet_hat(F: JetExpr):
    """Symbol of the linearization: coefficients dF/du_{jx} on xi^j."""
    from .series import PsdSeries

    F = as_expr(F)
    n = order(F)
    if n is NEG_INF:
        return PsdSeries.zero()
    coeffs = {j: du_coefficient(F, j) for j in range(0, n + 1)}
    return PsdSeries.from_coeffs(coeffs, exact=True)


def euler(F: JetExpr) -> JetExpr:
    """Variational derivative sum_{i>=0} (-D_x)^i dF/du_{ix}.

    The i = 0 term is included: it is required for the catalog identities
    (e.g. the variational derivative of u^2 must be 2u).  Horner form
    c_0 - D_x(c_1 - D_x(c_2 - ...)) with c_i = dF/du_{ix}: one D_x per order.
    """
    F = as_expr(F)
    n = F.top_jet() or 0
    total = du_coefficient(F, n)
    for i in range(n - 1, -1, -1):
        total = du_coefficient(F, i) - total_x(total)
    return total


# -- formal integration in x -------------------------------------------------


def _poly_in_gen(e: JetExpr, g: Generator) -> list[JetExpr] | None:
    """Coefficient list of e in powers of g, or None when g divides the
    denominator (rational dependence)."""
    if g in e.den.generators():
        return None
    return [JetExpr._reduce(c, e.den) for c in _to_univariate(e.num, g)]


def _integrate_in(e: JetExpr, g: Generator) -> JetExpr | None:
    """Antiderivative in g of e, or None when e is not polynomial in g."""
    coeffs = _poly_in_gen(e, g)
    if coeffs is None:
        return None
    ge = JetExpr.from_gen(g)
    total = ZERO_EXPR
    for k, a in enumerate(coeffs):
        total = total + a * ge ** (k + 1) / (k + 1)
    return total


def _shifted_poly_in_u(e: JetExpr, c: JetExpr) -> list[JetExpr] | None:
    """Coefficients of e as a polynomial in (u + c); None if not polynomial in u."""
    coeffs = _poly_in_gen(e, jet(0))
    if coeffs is None:
        return None
    # Taylor shift: expand each u^k as ((u+c) - c)^k by binomials
    shifted = [ZERO_EXPR] * len(coeffs)
    for k, a in enumerate(coeffs):
        for j in range(0, k + 1):
            shifted[j] = shifted[j] + a * math.comb(k, j) * (-c) ** (k - j)
    return shifted


def _integrate_rational_u(R: JetExpr) -> JetExpr | None:
    """Antiderivative in u of a symbol-free rational function whose
    denominator is a power of (u+c); the residue slot produces ln(u+c)."""
    ugen = jet(0)
    if ugen not in R.den.generators():
        return _integrate_in(R, ugen)
    dec = _uc_decomposition(R)
    if dec is None:
        return None
    uc = u() + par("c")
    total = ZERO_EXPR
    for q, a in dec.items():
        if q == -1:
            total = total + a * ln_shift()
        else:
            total = total + a * uc ** (q + 1) / (q + 1)
    return total


def _uc_decomposition(R: JetExpr) -> dict[int, JetExpr] | None:
    """Write R as sum a_q (u+c)^q with u-free coefficients, or None.

    The power k of u+c in R's denominator is read off its squarefree
    factorization: the only factor involving u must be u+c itself (both are
    primitive with a positive leading coefficient), else there is no such sum.
    """
    ugen = jet(0)
    uc = u() + par("c")
    k = 0
    for q, e, _ in squarefree_factors(R.den):
        if ugen in q.generators():
            if q != uc.num:
                return None
            k = e
    shifted = _shifted_poly_in_u(R * uc ** k, par("c"))
    if shifted is None:
        return None
    out: dict[int, JetExpr] = {}
    for j, a in enumerate(shifted):
        if a.is_zero:
            continue
        if any(g.kind in (KIND_JET, KIND_FN) for g in a.generators()):
            return None
        out[j - k] = a
    return out


def _antiderivative_u(A: JetExpr) -> JetExpr | None:
    """Antiderivative of A with respect to u inside the rational class
    extended by the f/r/rhat tower and ln(u+c).

    The tower is handled by top-symbol stripping: the u-derivation maps each
    chain symbol to the next one, exactly like D_x on jets, so an exact
    expression is affine in its deepest symbol and the integral is rebuilt
    by integrating that coefficient with respect to the predecessor symbol.
    ln(u+c) powers integrate by parts after splitting off the residue term.
    """
    if A.is_zero:
        return ZERO_EXPR
    fams = [g for g in A.generators() if g.kind == KIND_FN]
    if any(g.name == LOG_FAMILY for g in fams):
        if any(g.name != LOG_FAMILY for g in fams):
            return None
        return _integrate_lnuc(A)
    if not fams:
        return _integrate_rational_u(A)
    if any(g.kind in (KIND_FN, KIND_JET) for g in A.den.generators()):
        return None
    zeta = ZERO_EXPR
    rem = A
    while True:
        fams = [g for g in rem.generators() if g.kind == KIND_FN]
        if not fams:
            tail = _integrate_rational_u(rem)
            if tail is None:
                return None
            return zeta + tail
        depths = []
        for g in fams:
            d = symbol_depth(g)
            if d is None:
                return None
            depths.append((d, g))
        d, H = max(depths, key=lambda t: t[0])
        if d <= -2:
            return None  # nothing integrates to rhat
        if rem.num.degree_in(H) != 1 or H in rem.den.generators():
            return None
        A_H = partial(rem, H)
        C = _integrate_in(A_H, symbol_at_depth(d - 1))
        if C is None:
            return None
        zeta = zeta + C
        rem = rem - partial_u_total(C)


def _integrate_lnuc(A: JetExpr) -> JetExpr | None:
    """Antiderivative of a polynomial in ln(u+c) with rational coefficients."""
    L = fnsym(LOG_FAMILY, 0)
    if L in A.den.generators():
        return None
    coeffs = _poly_in_gen(A, L)
    if coeffs is None:
        return None
    total = ZERO_EXPR
    for p, Cp in enumerate(coeffs):
        piece = _integrate_lnuc_power(Cp, p)
        if piece is None:
            return None
        total = total + piece
    return total


def _integrate_lnuc_power(R: JetExpr, p: int) -> JetExpr | None:
    """Integral of R(u) * ln(u+c)^p du for rational R, by parts on p."""
    if R.is_zero:
        return ZERO_EXPR
    if p == 0:
        return _integrate_rational_u(R)
    uc = u() + par("c")
    Le = ln_shift()
    dec = _uc_decomposition(R) if jet(0) in R.den.generators() else None
    residue = ZERO_EXPR
    if dec is not None:
        residue = dec.get(-1, ZERO_EXPR)
    elif jet(0) in R.den.generators():
        return None
    rest = R - residue / uc
    total = residue * Le ** (p + 1) / (p + 1)
    IR = _integrate_rational_u(rest)
    if IR is None or fnsym(LOG_FAMILY, 0) in IR.generators():
        return None
    tail = _integrate_lnuc_power(IR / uc, p - 1)
    if tail is None:
        return None
    return total + IR * Le ** p - p * tail


def formal_x_integrate(F: JetExpr) -> tuple[JetExpr, JetExpr]:
    """Split F = D_x(zeta) + residual by repeated top-order stripping.

    The residual is irreducible for the stripping algorithm.  A remainder
    free of jets and function symbols is integrated in x outright, so an
    element h of ker D_x (a function of t and parameters) gives x*h.
    """
    F = as_expr(F)
    zeta = ZERO_EXPR
    rem = F
    while True:
        m = rem.top_jet()
        if m is None or m == 0:
            break
        if jet(m) in rem.den.generators():
            return zeta, rem
        if rem.num.degree_in(jet(m)) != 1:
            return zeta, rem
        A = partial(rem, jet(m))
        C = _integrate_in(A, jet(m - 1)) if m >= 2 else _antiderivative_u(A)
        if C is None:
            return zeta, rem
        zeta = zeta + C
        rem = rem - total_x(C)
    # remaining order <= 0: u-dependence cannot be integrated in x
    gens = rem.generators()
    if any(g.kind in (KIND_JET, KIND_FN) for g in gens):
        return zeta, rem
    tail = _integrate_in(rem, X)
    if tail is None:
        return zeta, rem
    return zeta + tail, ZERO_EXPR
