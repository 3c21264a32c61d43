"""Differential operators on jet expressions.

total_x / total_t are the total derivatives (D_t restricted to an evolution
equation u_t = K), frechet the linearization operator, euler the variational
derivative, and formal_x_integrate a top-order stripping inverse of D_x that
reports an irreducible residual instead of failing.  One stripping loop runs
over both chains: u -> u_x -> u_xx -> ... under D_x, and rhat -> r -> f ->
f' -> ... under d/du, where an exact expression is affine in its top symbol
and the slope is integrated in the predecessor; ln(u+c) powers go by parts.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate

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
    substitute_map,
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
    ONE,
    X,
    Generator,
    Poly,
    PolySum,
    _to_univariate,
    div_exact,
    fnsym,
    jet,
    monomial,
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


@cache  # generators are interned: one image per generator and process
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
    dq = accumulate(range(n), lambda d, _: total_x(d), initial=Q)  # D_x^j(Q), j = 0..n
    return JetExpr.sum(du_coefficient(F, j) * d for j, d in enumerate(dq))


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


def _strip(F: JetExpr, derivation, piece) -> tuple[JetExpr, JetExpr]:
    """(zeta, rem) with F = derivation(zeta) + rem: while piece(rem) returns
    an antiderivative C of the top part of rem, add C to zeta and subtract
    derivation(C) from rem."""
    zeta = ZERO_EXPR
    rem = F
    while not rem.is_zero:
        C = piece(rem)
        if C is None:
            break
        zeta = zeta + C
        rem = rem - derivation(C)
    return zeta, rem


def _affine_piece(rem: JetExpr, H: Generator, pred: Generator) -> JetExpr | None:
    """Antiderivative in pred of drem/dH when rem is affine in H, else None.
    In pred = u it runs over the f-chain and ln(u+c), and all or nothing."""
    if H in rem.den.generators() or rem.num.degree_in(H) != 1:
        return None
    slope = JetExpr._reduce(_to_univariate(rem.num, H)[1], rem.den)  # drem/dH
    if pred is not jet(0):
        return _integrate_in(slope, pred)
    zeta, left = _strip(slope, partial_u_total, _u_piece)
    return zeta if left.is_zero else None


def _x_piece(rem: JetExpr) -> JetExpr | None:
    """Antiderivative in x of the top-jet part of rem, whose slope is
    integrated in u when the top jet is u_x.  A remainder free of jets and
    function symbols is integrated in x outright."""
    m = rem.top_jet()
    if m:
        return _affine_piece(rem, jet(m), jet(m - 1))
    if any(g.kind in (KIND_JET, KIND_FN) for g in rem.generators()):
        return None  # u-dependence cannot be integrated in x
    return _integrate_in(rem, X)


def _u_piece(rem: JetExpr) -> JetExpr | None:
    """Antiderivative in u of the part of rem in its deepest chain symbol,
    else of its top power of ln(u+c), else of rem itself.  None outside the
    class: a symbol in the denominator, the chain beside u in the
    denominator, or rhat as the deepest symbol."""
    if any(g.kind == KIND_FN for g in rem.den.generators()):
        return None
    fns = [g for g in rem.generators() if g.kind == KIND_FN]
    chain = [g for g in fns if g.name != LOG_FAMILY]
    if chain:
        if jet(0) in rem.den.generators():
            return None
        H = max(chain, key=symbol_depth)
        d = symbol_depth(H)
        if d <= -2:
            return None  # nothing integrates to rhat
        return _affine_piece(rem, H, symbol_at_depth(d - 1))
    if fns:
        coeffs = _to_univariate(rem.num, fnsym(LOG_FAMILY, 0))
        return _integrate_lnuc_power(JetExpr._reduce(coeffs[-1], rem.den), len(coeffs) - 1)
    return _integrate_rational_u(rem)


def _integrate_in(e: JetExpr, g: Generator) -> JetExpr | None:
    """Antiderivative in g of e, or None when e is not polynomial in g.  The
    numerator is integrated term by term over the same denominator, free of
    g, with no reduction: a factor free of g divides a polynomial iff it
    divides each of its coefficients in g."""
    if g in e.den.generators():
        return None
    acc = PolySum()
    for k, a in enumerate(_to_univariate(e.num, g), 1):
        if a.terms:
            # monomial raises ExponentOverflow for k > MAX_EXPONENT
            acc.add(a * Poly({monomial(((g, k),)): 1}), 1, k)
    return JetExpr(acc.value(), e.den)


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
    return JetExpr.sum(a * ln_shift() if q == -1 else a * uc ** (q + 1) / (q + 1)
                       for q, a in dec.items())


def _uc_decomposition(R: JetExpr) -> dict[int, JetExpr] | None:
    """Write R as sum a_q (u+c)^q with u-free coefficients, or None.

    The power k of u+c in R's denominator is read off its squarefree
    factorization: the only factor involving u must be u+c itself (both are
    primitive with a positive leading coefficient), else there is no such sum.
    With R = P/((u+c)^k * D), the numerator is Taylor-shifted once, P(u - c)
    = sum p_j u^j, and a_{j-k} = p_j/D is reduced once per coefficient.
    """
    ugen = jet(0)
    c = par("c")
    uc = u() + c
    k = 0
    for q, e, _ in squarefree_factors(R.den):
        if ugen in q.generators():
            if q != uc.num:
                return None
            k = e
    D = div_exact(R.den, uc.num ** k)
    shifted = substitute_map(JetExpr(R.num, ONE), {ugen: u() - c}).num
    out: dict[int, JetExpr] = {}
    for j, p in enumerate(_to_univariate(shifted, ugen)):
        if not p.terms:
            continue
        a = JetExpr._reduce(p, D)
        if any(g.kind in (KIND_JET, KIND_FN) for g in a.generators()):
            return None
        out[j - k] = a
    return out


def _integrate_lnuc_power(R: JetExpr, p: int) -> JetExpr | None:
    """Integral of R(u) * ln(u+c)^p du for rational R, by parts on p."""
    if R.is_zero:
        return ZERO_EXPR
    if p == 0:
        return _integrate_rational_u(R)
    uc = u() + par("c")
    Le = ln_shift()
    residue = ZERO_EXPR
    if jet(0) in R.den.generators():
        dec = _uc_decomposition(R)
        if dec is None:
            return None
        residue = dec.get(-1, ZERO_EXPR)
    rest = R - residue / uc
    total = residue * Le ** (p + 1) / (p + 1)
    IR = _integrate_rational_u(rest)
    if IR is None:
        return None  # rest has no residue, so IR is free of ln(u+c)
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
    return _strip(as_expr(F), total_x, _x_piece)
