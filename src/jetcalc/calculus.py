"""Differential operators on jet expressions.

total_x / total_t are the total derivatives (D_t restricted to an evolution
equation u_t = K), frechet the linearization operator, euler the variational
derivative, and formal_x_integrate a top-order stripping inverse of D_x that
reports an irreducible residual instead of failing.  One stripping loop runs
over both chains: u -> u_x -> u_xx -> ... under D_x, and rhat -> r -> f ->
f' -> ... under d/du, where an exact expression is affine in its top symbol
and the slope is integrated in the predecessor; ln(u+c) powers go by parts.
Each step is one pass over the remainder: the slope is read, or a degree
other than 1 refused, by ``Poly.affine_slope``, an antiderivative in x or u
is ``Poly.antiderivative`` of the numerator, and D(C) is subtracted inside
the remainder's accumulator when both are polynomial
(``expr.subtract_derived``).
It also runs in the log branch's coordinate w = u + c (``shifted``), with the
same antiderivatives: those built on powers of u + c are built on powers of
w, and those built on powers of u still vanish at u = 0, that is at w = c.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate

from .errors import JetCalcError
from .expr import (
    CHAIN_DEPTH,
    FunctionSpec,
    JetExpr,
    ONE_EXPR,
    ZERO_EXPR,
    as_expr,
    derive,
    ln_shift,
    ln_w,
    par,
    partial,
    subtract_derived,
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
    Poly,
    _to_univariate,
    div_exact,
    horner,
    jet,
    param,
    squarefree_factors,
    taylor_shift,
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
    return JetExpr.combination((1, du_coefficient(F, j), d) for j, d in enumerate(dq))


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


def _strip(F: JetExpr, image, piece) -> tuple[JetExpr, JetExpr]:
    """(zeta, rem) with F = D(zeta) + rem for D = derive(., image): while
    piece(rem) returns an antiderivative C of the top part of rem, C joins
    zeta and D(C) is subtracted from rem, in place when both are polynomial
    (``subtract_derived``).  zeta is summed once at the end."""
    pieces = []
    rem = F
    while not rem.is_zero:
        C = piece(rem)
        if C is None:
            break
        pieces.append(C)
        rem = subtract_derived(rem, C, image)
    return JetExpr.sum(pieces), rem


def _affine_piece(rem: JetExpr, H: Generator, pred: Generator, shifted: bool) -> JetExpr | None:
    """Antiderivative in pred of drem/dH when rem is affine in H, else None.
    In pred = u it runs over the f-chain and the logarithm, and all or nothing."""
    if H in rem.den.generators():
        return None
    slope = rem.num.affine_slope(H)
    if slope is None:
        return None
    slope = JetExpr._reduce(slope, rem.den)  # drem/dH
    if pred is not jet(0):
        return _integrate_in(slope, pred)
    zeta, left = _strip(slope, u_image, lambda r: _u_piece(r, shifted))
    return zeta if left.is_zero else None


def _x_piece(rem: JetExpr, shifted: bool) -> JetExpr | None:
    """Antiderivative in x of the top-jet part of rem, whose slope is
    integrated in u when the top jet is u_x.  A remainder free of jets and
    function symbols is integrated in x outright."""
    m = rem.top_jet()
    if m:
        return _affine_piece(rem, jet(m), jet(m - 1), shifted)
    if any(g.kind in (KIND_JET, KIND_FN) for g in rem.generators()):
        return None  # u-dependence cannot be integrated in x
    return _integrate_in(rem, X)


@cache
def _pole_and_log(shifted: bool) -> tuple[JetExpr, JetExpr]:
    """u + c and ln(u+c), or in w = u + c, w and ln(w)."""
    return (u(), ln_w()) if shifted else (u() + par("c"), ln_shift())


def _u_piece(rem: JetExpr, shifted: bool) -> JetExpr | None:
    """Antiderivative in u of the part of rem in its deepest chain symbol,
    else of its top power of the logarithm, else of rem itself.  None outside
    the class: a symbol in the denominator, the chain beside u in the
    denominator, rhat as the deepest symbol, or the logarithm of the other
    coordinate."""
    if any(g.kind == KIND_FN for g in rem.den.generators()):
        return None
    fns = [g for g in rem.generators() if g.kind == KIND_FN]
    chain = [g for g in fns if g.name in CHAIN_DEPTH]
    if chain:
        if jet(0) in rem.den.generators():
            return None
        H = max(chain, key=symbol_depth)
        d = symbol_depth(H)
        if d <= -2:
            return None  # nothing integrates to rhat
        return _affine_piece(rem, H, symbol_at_depth(d - 1), shifted)
    if fns:
        if set(fns) != _pole_and_log(shifted)[1].generators():
            return None
        coeffs = _to_univariate(rem.num, fns[0])
        return _integrate_log_power(JetExpr._reduce(coeffs[-1], rem.den), len(coeffs) - 1,
                                    shifted)
    return _integrate_rational_u(rem, shifted)


def _integrate_in(e: JetExpr, g: Generator) -> JetExpr | None:
    """Antiderivative in g of e, or None when e is not polynomial in g.  The
    numerator is integrated term by term over the same denominator, free of
    g, with no reduction: a factor free of g divides a polynomial iff it
    divides each of its coefficients in g."""
    if g in e.den.generators():
        return None
    return JetExpr(e.num.antiderivative(g), e.den)


def _integrate_rational_u(R: JetExpr, shifted: bool) -> JetExpr | None:
    """Antiderivative in u of a symbol-free rational function whose
    denominator is a power of the pole u+c; the residue slot produces the
    logarithm.  A denominator free of u gives the antiderivative on powers
    of u that vanishes at u = 0, which in w is at w = c."""
    ugen = jet(0)
    if ugen not in R.den.generators():
        zeta = _integrate_in(R, ugen)
        if shifted and not zeta.is_zero:
            # less its value at w = c, a part free of w: the pair stays reduced
            at_c = horner(zeta.num, ugen, Poly.gen(param("c")))
            zeta = JetExpr(zeta.num - at_c, zeta.den)
        return zeta
    dec = _uc_decomposition(R, shifted)
    if dec is None:
        return None
    pole, log = _pole_and_log(shifted)
    return JetExpr.sum(a * log if q == -1 else a * pole ** (q + 1) / (q + 1)
                       for q, a in dec.items())


def _uc_decomposition(R: JetExpr, shifted: bool) -> dict[int, JetExpr] | None:
    """Write R as sum a_q (u+c)^q with u-free coefficients, or None.

    The power k of the pole u+c in R's denominator is read off its
    squarefree factorization: the only factor involving u must be the pole
    itself (both are primitive with a positive leading coefficient), else
    there is no such sum.  With R = P/((u+c)^k * D), the a_{j-k} = p_j/D are
    reduced once per coefficient, p_j the coefficients of P in u+c.  In
    w = u + c the pole is the generator w, so the p_j are P's own
    coefficients; in u they are those of the Taylor shift P(u - c).
    """
    ugen = jet(0)
    pole = _pole_and_log(shifted)[0].num
    k = 0
    for q, e, _ in squarefree_factors(R.den):
        if ugen in q.generators():
            if q != pole:
                return None
            k = e
    D = div_exact(R.den, pole ** k)
    num = R.num if shifted else taylor_shift(R.num, ugen, -Poly.gen(param("c")))
    out: dict[int, JetExpr] = {}
    for j, p in enumerate(_to_univariate(num, ugen)):
        if not p.terms:
            continue
        a = JetExpr._reduce(p, D)
        if any(g.kind in (KIND_JET, KIND_FN) for g in a.generators()):
            return None
        out[j - k] = a
    return out


def _integrate_log_power(R: JetExpr, p: int, shifted: bool) -> JetExpr | None:
    """Integral of R(u) * ln(u+c)^p du for rational R, by parts on p."""
    if R.is_zero:
        return ZERO_EXPR
    if p == 0:
        return _integrate_rational_u(R, shifted)
    pole, log = _pole_and_log(shifted)
    residue = ZERO_EXPR
    if jet(0) in R.den.generators():
        dec = _uc_decomposition(R, shifted)
        if dec is None:
            return None
        residue = dec.get(-1, ZERO_EXPR)
    rest = R - residue / pole
    total = residue * log ** (p + 1) / (p + 1)
    IR = _integrate_rational_u(rest, shifted)
    if IR is None:
        return None  # rest has no residue, so IR is free of the logarithm
    tail = _integrate_log_power(IR / pole, p - 1, shifted)
    if tail is None:
        return None
    return total + IR * log ** p - p * tail


def formal_x_integrate(F: JetExpr, shifted: bool = False) -> tuple[JetExpr, JetExpr]:
    """Split F = D_x(zeta) + residual by repeated top-order stripping.

    The residual is irreducible for the stripping algorithm.  A remainder
    free of jets and function symbols is integrated in x outright, so an
    element h of ker D_x (a function of t and parameters) gives x*h.
    ``shifted``: F is written in w = u + c (``expr.to_w``), and so are zeta
    and the residual, each the image of the one computed in u.
    """
    return _strip(as_expr(F), _dx_image, lambda rem: _x_piece(rem, shifted))
