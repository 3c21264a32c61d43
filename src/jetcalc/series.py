"""Formal Laurent series in xi with JetExpr coefficients.

Composition follows the generalized Leibniz rule

    a xi^i o b xi^j = a * sum_k  C(i,k) D_x^k(b) xi^(i+j-k)

with C(i,k) = i(i-1)...(i-k+1)/k! computed exactly for any integer i.
Precision is explicit window bookkeeping: a series knows the lowest xi-power
whose coefficient is guaranteed; below that, coefficients are dropped, never
silently wrong.  Series whose tail is exactly zero carry ``exact=True``.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .calculus import NEG_INF, order_text, total_t, total_x
from .errors import JetCalcError, RootNotInClass
from .expr import JetExpr, ONE_EXPR, ZERO_EXPR, as_expr

DEFAULT_SLOTS = 20


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
        return positive_int(env)
    except ValueError:
        raise JetCalcError("JETCALC_PRECISION must be a positive integer, "
                           f"got {env!r}") from None


def binom_falling(i: int, k: int) -> Fraction:
    """i(i-1)...(i-k+1)/k! for any integer i, exact."""
    num = 1
    for j in range(k):
        num *= i - j
    den = 1
    for j in range(2, k + 1):
        den *= j
    return Fraction(num, den)


class PsdSeries:
    """Truncated Laurent series; immutable."""

    __slots__ = ("top", "coeffs", "exact", "_hash")

    def __init__(self, top: int, coeffs: tuple, exact: bool):
        # internal: use the factories below
        self.top = top
        self.coeffs = coeffs
        self.exact = exact
        self._hash = None

    # -- factories --------------------------------------------------------

    @classmethod
    def zero(cls) -> "PsdSeries":
        return cls(0, (), True)

    @classmethod
    def from_coeffs(cls, mapping: dict[int, JetExpr], exact: bool = True,
                    bottom: int | None = None) -> "PsdSeries":
        mapping = {i: as_expr(c) for i, c in mapping.items()}
        nonzero = [i for i, c in mapping.items() if not c.is_zero]
        if not nonzero:
            if exact and bottom is None:
                return cls.zero()
            top = max(mapping) if mapping else (bottom if bottom is not None else 0)
            bot = bottom if bottom is not None else (min(mapping) if mapping else 0)
            return cls(top, tuple(ZERO_EXPR for _ in range(top - bot + 1)), exact)
        top = max(nonzero)
        bot = bottom if bottom is not None else min(mapping)
        if bot > min(nonzero):
            bot = min(nonzero)
        coeffs = tuple(mapping.get(i, ZERO_EXPR) for i in range(top, bot - 1, -1))
        return cls(top, coeffs, exact)

    @classmethod
    def monomial(cls, coeff, power: int = 0) -> "PsdSeries":
        coeff = as_expr(coeff)
        if coeff.is_zero:
            return cls.zero()
        return cls(power, (coeff,), True)

    @classmethod
    def xi(cls, power: int = 1) -> "PsdSeries":
        return cls.monomial(ONE_EXPR, power)

    @classmethod
    def const(cls, c) -> "PsdSeries":
        return cls.monomial(as_expr(c), 0)

    # -- window accessors ---------------------------------------------------

    @property
    def bottom(self) -> int:
        """Lowest guaranteed index (meaningless when exact and empty)."""
        return self.top - len(self.coeffs) + 1

    def coeff(self, i: int) -> JetExpr:
        """Coefficient at xi^i; exact zero above the window, error below."""
        if i > self.top:
            return ZERO_EXPR
        if i >= self.bottom:
            return self.coeffs[self.top - i]
        if self.exact:
            return ZERO_EXPR
        raise IndexError(f"coefficient at xi^{i} below the guaranteed window")

    def degree(self):
        """Greatest index with nonzero coefficient.

        NEG_INF when the series is exactly zero; when a truncated series has
        no nonzero known coefficient the degree is also reported as NEG_INF
        relative to the window (callers needing the distinction check
        ``exact``).
        """
        for k, c in enumerate(self.coeffs):
            if not c.is_zero:
                return self.top - k
        return NEG_INF

    def is_zero_on_window(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def items(self):
        for k, c in enumerate(self.coeffs):
            yield self.top - k, c

    def trimmed(self) -> "PsdSeries":
        """Drop exactly-zero leading slots (and trailing ones when the tail
        is exact); the normal form used for display and equality."""
        k = 0
        while k < len(self.coeffs) and self.coeffs[k].is_zero:
            k += 1
        coeffs = self.coeffs[k:]
        if self.exact:
            j = len(coeffs)
            while j > 0 and coeffs[j - 1].is_zero:
                j -= 1
            coeffs = coeffs[:j]
        if not coeffs and self.exact:
            return PsdSeries.zero()
        if k == 0 and coeffs == self.coeffs:
            return self
        return PsdSeries(self.top - k, coeffs, self.exact)

    def __eq__(self, other):
        if not isinstance(other, PsdSeries):
            return NotImplemented
        a, b = self.trimmed(), other.trimmed()
        return a.top == b.top and a.coeffs == b.coeffs and a.exact == b.exact

    def agrees_with(self, other: "PsdSeries") -> bool:
        """Equality of coefficients on the common guaranteed window."""
        top = max((s.degree() for s in (self, other)
                   if s.degree() is not NEG_INF), default=None)
        if top is None:
            return True
        bots = [s.bottom for s in (self, other) if not s.exact]
        bot = max(bots) if bots else min(s.bottom for s in (self, other) if s.coeffs)
        for i in range(top, bot - 1, -1):
            if self.coeff(i) != other.coeff(i):
                return False
        return True

    def __hash__(self):
        if self._hash is None:
            a = self.trimmed()
            self._hash = hash((a.top, a.coeffs, a.exact))
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "PsdSeries(0)"
        parts = [f"({c!r})*xi^{i}" for i, c in self.items() if not c.is_zero]
        if not parts:
            parts = ["0"]
        tail = "" if self.exact else f" + O(xi^{self.bottom - 1})"
        return " + ".join(parts) + tail

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "PsdSeries") -> "PsdSeries":
        if not isinstance(other, PsdSeries):
            return NotImplemented
        exact = self.exact and other.exact
        tops = [s.top for s in (self, other) if s.coeffs]
        if not tops:
            return PsdSeries.zero() if exact else PsdSeries(0, (), False)
        top = max(tops)
        bots = []
        for s in (self, other):
            if not s.exact:
                bots.append(s.bottom)
        if exact:
            bot = min(s.bottom for s in (self, other) if s.coeffs)
        else:
            bot = max(bots)
            if bot > top:
                top = bot
        coeffs = tuple(self.coeff(i) + other.coeff(i) for i in range(top, bot - 1, -1))
        return PsdSeries(top, coeffs, exact)

    def __neg__(self) -> "PsdSeries":
        return PsdSeries(self.top, tuple(-c for c in self.coeffs), self.exact)

    def __sub__(self, other: "PsdSeries") -> "PsdSeries":
        return self + (-other)


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


def product_coeff(A, B, m: int, dx) -> JetExpr:
    """The xi^m coefficient of A o B, the sum of a_i C(i,k) D_x^k(b_j) over
    i + j - k = m, k >= 0, with dx from ``dx_towers()``.  A and B map
    xi-indices to coefficients (a PsdSeries or a dict); m must lie in the
    window that their listed coefficients fix."""
    total = ZERO_EXPR
    for i, a in A.items():
        inner = ZERO_EXPR  # one product with a_i
        for j, b in B.items():
            k = i + j - m
            # C(i,k) = 0 for 0 <= i < k
            if k >= 0 and (i < 0 or k <= i) and not (d := dx(b, k)).is_zero:
                inner = inner + binom_falling(i, k) * d
        total = total + a * inner
    return total


def _tail_below(A, B, floor: int, dx) -> bool:
    """True when a nonzero term of A o B sits below xi^floor.  Only terms with
    C(i,k) != 0 count, and D_x^k(b) = 0 ends b's tower, so for each pair the
    first k below the floor decides."""
    for i, a in A.items():
        for j, b in B.items():
            k = max(0, i + j - floor + 1)
            if (i < 0 or k <= i) and not a.is_zero and not dx(b, k).is_zero:
                return True
    return False


def compose(A: PsdSeries, B: PsdSeries, slots: int | None = None) -> PsdSeries:
    """Product in the pseudodifferential algebra."""
    if A.is_zero_on_window() or B.is_zero_on_window():
        if A.exact and B.exact:
            return PsdSeries.zero()
        tops = (A.top if A.coeffs else 0) + (B.top if B.coeffs else 0)
        return PsdSeries(tops, (ZERO_EXPR,), False)
    if slots is None:
        slots = default_slots()
    top = A.top + B.top
    # window guaranteed by the operands
    floor_exact = None
    if not A.exact:
        floor_exact = A.bottom + B.top
    if not B.exact:
        fb = B.bottom + A.top
        floor_exact = fb if floor_exact is None else max(floor_exact, fb)
    cap = top - slots + 1
    floor = cap if floor_exact is None else max(cap, floor_exact)

    dx = dx_towers()
    acc = {m: c for m in range(top, floor - 1, -1)
           if not (c := product_coeff(A, B, m, dx)).is_zero}
    truncated = floor_exact is not None or _tail_below(A, B, floor, dx)
    return PsdSeries.from_coeffs(acc, exact=not truncated,
                                 bottom=None if not truncated else floor)


def commutator(A: PsdSeries, B: PsdSeries, slots: int | None = None) -> PsdSeries:
    return compose(A, B, slots) - compose(B, A, slots)


def adjoint(A: PsdSeries, slots: int | None = None) -> PsdSeries:
    """Formal adjoint: sum (-xi)^i o a_i."""
    if slots is None:
        slots = default_slots()
    floor = A.top - slots + 1
    if not A.exact:
        floor = max(floor, A.bottom)
    dx = dx_towers()
    # one product (+-xi^i) o a_i per coefficient
    terms = [({i: as_expr(-1 if i % 2 else 1)}, {0: a}) for i, a in A.items()]
    acc = {m: c for m in range(A.top, floor - 1, -1)
           if not (c := sum((product_coeff(sign, a, m, dx) for sign, a in terms),
                            ZERO_EXPR)).is_zero}
    truncated = not A.exact or any(_tail_below(sign, a, floor, dx) for sign, a in terms)
    return PsdSeries.from_coeffs(acc, exact=not truncated,
                                 bottom=None if not truncated else floor)


def series_power(A: PsdSeries, n: int, slots: int | None = None) -> PsdSeries:
    result = PsdSeries.const(1)
    for _ in range(n):
        result = compose(result, A, slots)
    return result


def nth_root(A: PsdSeries, n: int, slots: int | None = None) -> PsdSeries:
    """The n-th root R, led by the rational root of A's lead, with R^n = A up
    to the guaranteed window."""
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
        slots = min(slots, A.top - A.bottom + 1)
    # R = root*xi + r_0 + r_{-1} xi^-1 + ...; step s fixes r_(1-s) from the
    # xi^(n-s) coefficient of R^n.  Every power R^k, k <= n, keeps its known
    # coefficients: the xi^(k-s) one is R^(k-1) o R taken with r_(1-s) = 0,
    # and r_(1-s) enters it linearly as k*root^(k-1)*r_(1-s).
    R = {1: JetExpr.from_const(root)}
    powers = [None, R] + [{k: JetExpr.from_const(root ** k)} for k in range(2, n + 1)]
    dx = dx_towers()
    for s in range(1, slots):
        for k in range(2, n + 1):
            powers[k][k - s] = product_coeff(powers[k - 1], R, k - s, dx)
        r = (A.coeff(n - s) - powers[n].get(n - s, ZERO_EXPR)) / (n * root ** (n - 1))
        R[1 - s] = r
        for k in range(2, n + 1):
            powers[k][k - s] = powers[k][k - s] + k * root ** (k - 1) * r
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
    return PsdSeries(A.top, tuple(total_t(c, eq) for c in A.coeffs), A.exact)
