"""Formal Laurent series in xi with JetExpr coefficients.

Every product follows the generalized Leibniz rule

    a xi^i o b xi^j = a * sum_k  C(i,k) D_x^k(b) xi^(i+j-k)

with C(i,k) = i(i-1)...(i-k+1)/k! computed exactly for any integer i.  One
coefficient routine sums it over a list of signed products S o T, and one
window routine runs that over a product's guaranteed window: compose,
commutator, adjoint and nth_root's inner sums all go through them.
Precision is explicit window bookkeeping: a series stores its nonzero
coefficients and its floor, the lowest xi-power whose coefficient is
guaranteed; below that, coefficients are dropped, never silently wrong.  A
series whose tail is exactly zero has no floor (``exact`` is True).
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb

from .calculus import NEG_INF, order_text, total_t, total_x
from .errors import JetCalcError, RootNotInClass
from .expr import JetExpr, ONE_EXPR, ZERO_EXPR, as_expr, from_w, holds_log, to_w

DEFAULT_SLOTS = 20

# The largest window that --prec and JETCALC_PRECISION accept; the library
# takes any ``slots``.  Cost grows far faster than the window (2 vCPUs,
# Python 3.11): root "xi^5+u" --n 5 takes 0.65 s at 40 slots, 2.7 s at 50,
# 9.4 s at 60 and more than 100 s at 80, and the README root takes 11.6 s at
# 30.
MAX_SLOTS = 50


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return value


def default_slots() -> int:
    """The series window: JETCALC_PRECISION when set, else DEFAULT_SLOTS."""
    env = os.environ.get("JETCALC_PRECISION")
    if not env:
        return DEFAULT_SLOTS
    try:
        value = positive_int(env)
    except ValueError:
        raise JetCalcError("JETCALC_PRECISION must be a positive integer, "
                           f"got {env!r}") from None
    if value > MAX_SLOTS:
        raise JetCalcError(f"JETCALC_PRECISION must be at most {MAX_SLOTS}, got {env!r}")
    return value


def binom_falling(i: int, k: int) -> int:
    """C(i,k) = i(i-1)...(i-k+1)/k! for any integer i, an exact int:
    comb(i, k) for i >= 0, and (-1)^k comb(k-i-1, k) for i < 0."""
    if i >= 0:
        return comb(i, k)
    c = comb(k - i - 1, k)
    return -c if k % 2 else c


class PsdSeries:
    """Truncated Laurent series; immutable.

    ``terms`` maps xi-indices to the nonzero coefficients; ``floor`` is the
    lowest guaranteed index, or None when the tail is exactly zero.  Every
    term sits at or above the floor, so the pair is canonical.
    """

    __slots__ = ("terms", "floor", "_hash")

    def __init__(self, terms: dict[int, JetExpr], floor: int | None):
        # internal: use the factories below
        self.terms = terms
        self.floor = floor
        self._hash = None

    # -- factories --------------------------------------------------------

    @classmethod
    def zero(cls) -> "PsdSeries":
        return cls({}, None)

    @classmethod
    def from_coeffs(cls, mapping: dict[int, JetExpr], exact: bool = True,
                    bottom: int | None = None) -> "PsdSeries":
        """Zero entries are dropped; an inexact series is guaranteed from
        ``bottom`` (default: the lowest listed index) or from its lowest
        nonzero entry, whichever is lower."""
        terms = {i: e for i, c in mapping.items() if not (e := as_expr(c)).is_zero}
        if exact:
            return cls(terms, None)
        floor = min(mapping, default=0) if bottom is None else bottom
        return cls(terms, min([floor, *terms]))

    @classmethod
    def monomial(cls, coeff, power: int = 0) -> "PsdSeries":
        return cls.from_coeffs({power: coeff})

    @classmethod
    def xi(cls, power: int = 1) -> "PsdSeries":
        return cls.monomial(ONE_EXPR, power)

    @classmethod
    def const(cls, c) -> "PsdSeries":
        return cls.monomial(c, 0)

    # -- window accessors ---------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.floor is None

    def coeff(self, i: int) -> JetExpr:
        """Coefficient at xi^i; exact zero off the terms, error below the floor."""
        if self.floor is not None and i < self.floor:
            raise IndexError(f"coefficient at xi^{i} below the guaranteed window")
        return self.terms.get(i, ZERO_EXPR)

    def degree(self):
        """Greatest index with nonzero coefficient; NEG_INF when there is
        none, whether the series is exactly zero or zero on its window
        (callers needing the distinction check ``exact``)."""
        return max(self.terms, default=NEG_INF)

    def is_zero_on_window(self) -> bool:
        return not self.terms

    def items(self) -> list[tuple[int, JetExpr]]:
        """The nonzero terms, highest index first."""
        return sorted(self.terms.items(), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, PsdSeries):
            return NotImplemented
        return self.floor == other.floor and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.terms.items()), self.floor))
        return self._hash

    def __repr__(self):
        from .dsl import print_series  # the one printer; cycle broken at call time
        return print_series(self)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "PsdSeries") -> "PsdSeries":
        if not isinstance(other, PsdSeries):
            return NotImplemented
        # guaranteed from the higher floor
        floor = max((s.floor for s in (self, other) if s.floor is not None), default=None)
        return PsdSeries.from_coeffs(
            {i: self.terms.get(i, ZERO_EXPR) + other.terms.get(i, ZERO_EXPR)
             for i in self.terms.keys() | other.terms.keys()
             if floor is None or i >= floor}, floor is None, floor)

    def __neg__(self) -> "PsdSeries":
        return PsdSeries({i: -c for i, c in self.terms.items()}, self.floor)

    def __sub__(self, other: "PsdSeries") -> "PsdSeries":
        return self + (-other)


def _lead(A: PsdSeries) -> int:
    """A's degree, or its floor when A is zero on its window (0 when A is
    exactly zero): where a product's window is measured from."""
    if A.terms:
        return max(A.terms)
    return 0 if A.floor is None else A.floor


def dx_towers():
    """A D_x-tower cache for one call: dx(b, k) returns D_x^k(b), computing
    each level of each tower once."""
    towers: dict[JetExpr, list[JetExpr]] = {}

    def dx(b: JetExpr, k: int) -> JetExpr:
        tower = towers.setdefault(b, [b])
        while len(tower) <= k:
            tower.append(total_x(tower[-1]))
        return tower[k]

    return dx


def _leibniz_terms(A, B, m: int, dx, low: int = 0, sign: int = 1):
    """The (sign * C(i,k), D_x^k(b_j), a_i) triples of the xi^m coefficient of
    sign * A o B over i + j - k = m, k >= low, for ``JetExpr.combination``."""
    for i, a in A.items():
        for j, b in B.items():
            k = i + j - m
            # C(i,k) = 0 for 0 <= i < k
            if k >= low and (i < 0 or k <= i) and not (d := dx(b, k)).is_zero:
                yield sign * binom_falling(i, k), d, a


def _products_coeff(products, m: int, dx, low: int = 0) -> JetExpr:
    """The xi^m coefficient of the sum of sign * S o T over the (S, T, sign)
    products, terms with k >= low, in one ``JetExpr.combination``, with dx
    from ``dx_towers()``.  S and T map xi-indices to coefficients (a PsdSeries
    or a dict); an s_i of ``ONE_EXPR`` makes plain terms, no products."""
    return JetExpr.combination(t for S, T, sign in products
                               for t in _leibniz_terms(S, T, m, dx, low, sign))


def product_coeff(A, B, m: int, dx) -> JetExpr:
    """The xi^m coefficient of A o B, the sum of a_i C(i,k) D_x^k(b_j) over
    i + j - k = m, k >= 0."""
    return _products_coeff(((A, B, 1),), m, dx)


def commutator_coeff(A, B, m: int, dx) -> JetExpr:
    """The xi^m coefficient of A o B - B o A: the k = 0 products a_i b_j of
    the two sides cancel, so only k >= 1 is formed."""
    return _products_coeff(((A, B, 1), (B, A, -1)), m, dx, 1)


def _tail_below(A, B, floor: int, dx, low: int = 0) -> bool:
    """True when a nonzero term of A o B with k >= low sits below xi^floor,
    for A with nonzero listed coefficients.  Only terms with C(i,k) != 0
    count, and D_x^k(b) = 0 ends b's tower, so for each pair the first k
    below the floor decides."""
    for i, _ in A.items():
        for j, b in B.items():
            k = max(low, i + j - floor + 1)
            if (i < 0 or k <= i) and not dx(b, k).is_zero:
                return True
    return False


def _window(top: int, bounds: list[int], slots: int | None, products, low: int) -> PsdSeries:
    """The sum of sign * S o T over the (S, T, sign) products, terms with
    k >= low, on ``slots`` indices from xi^top and none below a bound that an
    inexact operand sets; truncated when there is such a bound or when a
    product has a term below the window."""
    if slots is None:
        slots = default_slots()
    floor = max([top - slots + 1, *bounds])
    dx = dx_towers()
    acc = {m: c for m in range(top, floor - 1, -1)
           if not (c := _products_coeff(products, m, dx, low)).is_zero}
    truncated = bool(bounds) or any(_tail_below(S, T, floor, dx, low)
                                    for S, T, _ in products)
    return PsdSeries(acc, floor if truncated else None)


def compose(A: PsdSeries, B: PsdSeries, slots: int | None = None) -> PsdSeries:
    """Product in the pseudodifferential algebra."""
    return _bilinear(A, B, slots, ((A, B, 1),), 0)


def commutator(A: PsdSeries, B: PsdSeries, slots: int | None = None) -> PsdSeries:
    """compose(A, B) - compose(B, A), on their common window and inexact when
    either is.  The k = 0 products cancel, so only those with k >= 1 are
    formed, and only they can leave the window."""
    return _bilinear(A, B, slots, ((A, B, 1), (B, A, -1)), 1)


def _bilinear(A: PsdSeries, B: PsdSeries, slots: int | None, products,
              low: int) -> PsdSeries:
    """``_window`` over the products of A and B, from the top of A o B, which
    is that of B o A; an inexact operand bounds the window by its floor plus
    the other's degree."""
    if not A.terms or not B.terms:
        if A.exact and B.exact:
            return PsdSeries.zero()
        return PsdSeries({}, _lead(A) + _lead(B))
    bounds = [s.floor + t.degree() for s, t in ((A, B), (B, A)) if not s.exact]
    return _window(A.degree() + B.degree(), bounds, slots, products, low)


def adjoint(A: PsdSeries, slots: int | None = None) -> PsdSeries:
    """Formal adjoint: sum (-xi)^i o a_i, one product (+-xi^i) o a_i per
    coefficient, bounded by A's floor when A is inexact."""
    products = [({i: ONE_EXPR}, {0: a}, -1 if i % 2 else 1) for i, a in A.items()]
    return _window(_lead(A), [] if A.exact else [A.floor], slots, products, 0)


def series_power(A: PsdSeries, n: int, slots: int | None = None) -> PsdSeries:
    result = PsdSeries.const(1)
    for _ in range(n):
        result = compose(result, A, slots)
    return result


def nth_root(A: PsdSeries, n: int, slots: int | None = None) -> PsdSeries:
    """The n-th root R, led by the rational root of A's lead, with R^n = A up
    to the guaranteed window.  When a coefficient of A holds ln(u+c), the
    root is computed in w = u + c, where each power of u + c is a monomial,
    and translated back coefficient by coefficient."""
    if n <= 0:
        raise ValueError("root index must be positive")
    if A.degree() != n:
        raise RootNotInClass(f"series degree {order_text(A.degree())} != root index {n}")
    lead = A.coeff(n)
    if not lead.is_rational_const:
        raise RootNotInClass("leading coefficient must be a rational constant")
    lv = lead.const_value()
    root = _fraction_nth_root(lv, n)
    if root is None:
        raise RootNotInClass(f"{lv} has no rational {n}-th root")
    if slots is None:
        slots = default_slots()
    if not A.exact:
        slots = min(slots, n - A.floor + 1)
    shifted = any(holds_log(c) for c in A.terms.values())
    if shifted:
        A = PsdSeries({i: to_w(c) for i, c in A.terms.items()}, A.floor)
    # R = root*xi + r_0 + r_{-1} xi^-1 + ...; step s fixes r_(1-s) from the
    # xi^(n-s) coefficient of R^n.  Every power R^k, k <= n, keeps its known
    # coefficients: the xi^(k-s) one is R^(k-1) o R taken with r_(1-s) = 0,
    # and r_(1-s) enters it linearly as k*root^(k-1)*r_(1-s).
    # The factor of a_i in a xi^m coefficient o R is the Leibniz sum over the
    # r_j with j >= m - i; R's keys run without gaps from 1 down, so it is
    # fixed by (i, m) and its lowest j, max(2 - s, m - i).  Step s + 1 reads
    # the xi^m coefficients of the next power up, so each sum is built once
    # and serves every power until r_(1-s) enters it; step n - m is the last
    # to read xi^m, and its sums are dropped after it.
    R = {1: JetExpr.from_const(root)}
    powers = [None, R] + [{k: JetExpr.from_const(root ** k)} for k in range(2, n + 1)]
    dx = dx_towers()
    sums: dict[int, dict] = {}  # m -> {(i, lowest j): Leibniz sum}
    for s in range(1, slots):
        for k in range(2, n + 1):
            m = k - s
            known = sums.setdefault(m, {})
            terms = []
            for i, a in powers[k - 1].items():
                key = (i, max(2 - s, m - i))
                inner = known.get(key)
                if inner is None:
                    inner = known[key] = product_coeff({i: ONE_EXPR}, R, m, dx)
                terms.append((1, a, inner))
            powers[k][m] = JetExpr.combination(terms)
        r = (A.coeff(n - s) - powers[n].get(n - s, ZERO_EXPR)) / (n * root ** (n - 1))
        R[1 - s] = r
        for k in range(2, n + 1):
            powers[k][k - s] = powers[k][k - s] + k * root ** (k - 1) * r
        sums.pop(n - s, None)
    if shifted:
        R = {i: from_w(r) for i, r in R.items()}
    return PsdSeries.from_coeffs(R, exact=False, bottom=1 - slots + 1)


def _fraction_nth_root(v: Fraction, n: int) -> Fraction | None:
    if v <= 0 and n % 2 == 0:
        return None
    sign = 1
    if v < 0:
        sign = -1
        v = -v

    def iroot(m: int) -> int | None:
        if m in (0, 1):
            return m
        lo, hi = 1, m
        while lo <= hi:
            mid = (lo + hi) // 2
            p = mid ** n
            if p == m:
                return mid
            if p < m:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    rn = iroot(v.numerator)
    rd = iroot(v.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(sign * rn, rd)


def dt_series(A: PsdSeries, eq) -> PsdSeries:
    """Coefficient-wise D_t."""
    return PsdSeries({i: d for i, c in A.terms.items()
                      if not (d := total_t(c, eq)).is_zero}, A.floor)
