"""Canonical exact expressions on jet coordinates.

A JetExpr is a reduced ratio of two multivariate polynomials over Q in the
generators of poly.py.  The denominator is kept content-free, sign-normalized
and coprime with the numerator, so two expressions are mathematically equal
on this class iff their canonical forms are structurally identical and
``is_zero`` is a plain emptiness check on the numerator.

Reduction cancels against the denominator's memoized squarefree factors
(poly.squarefree_factors), not a gcd of the whole pair: denominators are few
and mostly powers of linear factors such as u+c.  A factor q of multiplicity
e that carries the degree-one certificate (degree 1 in some generator, with
coprime coefficients there) is irreducible, so the common part is q^k for
the k <= e trial divisions of the numerator by q that succeed; any other
factor costs one poly_gcd(num, q^e).  The factors are pairwise coprime, so
the product of these common parts is gcd(num, den).  The cancelled
denominator is then divided by its unit, the content with the sign of the
leading coefficient in the canonical order (``Poly.unit``); that unit is
memoized per denominator Poly (``_den_unit``), like the factors.

The same factorizations keep the denominators small before reduction.  A
sum goes over the lcm of the two denominators, a.den * (b.den / g) with g
the product of the factors they share, at the lower multiplicity; and
``derive`` applies the quotient rule once, over d*s with s the product of
the factors of d that the derivation moves, where D(n)/d - (n/d) * D(d)/d
would reduce over d^2.

Reductions are spent only where they can cancel something.
``JetExpr.combination`` is the one summation of a list, sum(c * a * b) for
rational c, and ``JetExpr.sum`` is its case c = b = 1: the scaled
numerators over each distinct denominator are added in place into one
``poly.PolySum``, each group is reduced once (a lone term, or a sum over
1, is reduced already), and the groups are merged over the lcm, so m terms
over d denominators cost at most 2d - 1 reductions, not m.  A product of
two polynomials is folded into the PolySum term by term and never built
(``PolySum.add_product``); a rational factor takes the product a * b.
Substitution is such a sum: each part of a numerator over the replaced
generators times the product of their powers, each power formed once.
``derive`` groups the images of the generators by denominator the same way
and folds sum(dp/dg * image(g)) into one PolySum per group in a single pass
over the monomials of p, with no partial derivative built.  A rational-constant
factor on either side, or a rational divisor, scales the numerator and
keeps the denominator: scaling cannot create a common factor, so there is
nothing to reduce.

The abstract function symbols form one derivation chain in u, indexed by
depth (``CHAIN_DEPTH``):

    rhat --d/du--> r --d/du--> f --d/du--> f' --d/du--> f'' --> ...
     -2             -1          0           1            2

together with the opaque logarithm ``lnuc`` = ln(u+c) whose u-derivative is
1/(u+c).  The chain is what makes the antiderivative symbols of the energy
density work without a general integration operator.

The log branch computes in the coordinate w = u + c (``to_w``, ``from_w``).
u -> w - c is a ring automorphism that commutes with D_x, D_t and every
d/du_k, and there each power of u + c is the monomial w^k, so numerators stay
sparse and cancelling a power of u + c is a test on monomials.  In w, jet(0)
stands for w and ln(u+c) is the generator ``lnw`` = ln(w), whose u-derivative
is 1/w; being a generator of its own, it gets its own memoized image.
Translating back is a Taylor shift of numerator and denominator, with no gcd:
an automorphism keeps a reduced pair reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial

from .errors import DivisionByZero, InconsistentJetSubstitution, NotAPointFunction
from .poly import (
    KIND_FN,
    KIND_JET,
    KIND_T,
    KIND_X,
    ONE,
    ZERO,
    Generator,
    Poly,
    PolySum,
    div_exact,
    fnsym,
    jet,
    mono_factors,
    param,
    poly_gcd,
    rename,
    squarefree_factors,
    taylor_shift,
    unknown_t,
)

# The depth of each chain name's own symbol; f^(k) sits at depth k.
CHAIN_DEPTH = {"rhat": -2, "r": -1, "f": 0}
_NAME_AT_DEPTH = {d: name for name, d in CHAIN_DEPTH.items()}

# The family of the opaque ln(u+c), the one function symbol off the chain,
# and of the same logarithm in the coordinate w = u + c, ln(w).
LOG_FAMILY = "lnuc"
LOG_W_FAMILY = "lnw"


# Distinct reduced denominators are few, as for poly.squarefree_factors.
_den_unit = lru_cache(maxsize=256)(Poly.unit)


def _over_unit(num: Poly, den: Poly) -> "JetExpr":
    """num/den over the unit of den, which makes den canonical."""
    c = _den_unit(den)
    if c != 1:
        den = den.scale(1 / c)
        num = num.scale(1 / c)
    return JetExpr(num, den)


class JetExpr:
    """Canonical rational expression; immutable and hashable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly):
        # internal: callers must pass an already-reduced pair
        self.num = num
        self.den = den
        self._hash = None

    # -- construction ----------------------------------------------------

    @staticmethod
    def _reduce(num: Poly, den: Poly) -> "JetExpr":
        if den == ONE:
            return JetExpr(num, ONE)
        if den.is_zero():
            raise DivisionByZero("denominator is identically zero")
        if num.is_zero():
            return ZERO_EXPR
        if den.is_const():
            return JetExpr(num.scale(1 / den.const_value()), ONE)
        cancelled = ONE
        for q, e, certified in squarefree_factors(den):
            if certified:
                # q is irreducible: gcd(num, q^e) is q^k for the k trial divisions that succeed
                for _ in range(e):
                    quot = div_exact(num, q)
                    if quot is None:
                        break
                    num = quot
                    cancelled = cancelled * q
            else:
                g = poly_gcd(num, q ** e)
                if not g.is_const():
                    num = div_exact(num, g)
                    cancelled = cancelled * g
        if cancelled is not ONE:
            den = div_exact(den, cancelled)
        return _over_unit(num, den)

    @classmethod
    def from_const(cls, c) -> "JetExpr":
        c = Fraction(c)
        if c == 0:
            return ZERO_EXPR
        return cls(Poly.const(c), ONE)

    @classmethod
    def from_gen(cls, g: Generator) -> "JetExpr":
        return cls(Poly.gen(g), ONE)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def is_rational_const(self) -> bool:
        return self.num.is_const() and self.den == ONE

    def const_value(self) -> Fraction:
        if not self.is_rational_const:
            raise ValueError("not a rational constant")
        return self.num.const_value()

    def generators(self) -> frozenset:
        return self.num.generators() | self.den.generators()

    def top_jet(self) -> int | None:
        """Highest u_{ix} index occurring, None when jet-free."""
        best = None
        for g in self.generators():
            if g.kind == KIND_JET and (best is None or g.index > best):
                best = g.index
        return best

    def __eq__(self, other):
        if not isinstance(other, JetExpr):
            if isinstance(other, (int, Fraction)):
                other = JetExpr.from_const(other)
            else:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "JetExpr":
        other = as_expr(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return JetExpr._reduce(self.num + other.num, self.den)
        # over a.den * (b.den / g), g the common part of the two factorizations
        mine = {q: e for q, e, _ in squarefree_factors(self.den)}
        g = ONE
        for q, e, _ in squarefree_factors(other.den):
            k = min(e, mine.get(q, 0))
            if k:
                g = g * q ** k
        if g is ONE:
            a_cof, b_cof = self.den, other.den
        else:
            a_cof, b_cof = div_exact(self.den, g), div_exact(other.den, g)
        return JetExpr._reduce(self.num * b_cof + other.num * a_cof, self.den * b_cof)

    __radd__ = __add__

    @staticmethod
    def combination(terms) -> "JetExpr":
        """sum(c * a * b) over (c, a, b) triples, c an int or Fraction and a, b
        JetExprs or rational constants, b = ONE_EXPR for a plain term c * a.
        The scaled numerators over each distinct denominator go into one
        PolySum and are reduced once, a lone term or a sum over 1 being
        reduced already, and the groups are merged over the lcm by
        ``__add__``.  A product of two
        polynomials is folded into the PolySum over 1 by
        ``PolySum.add_product`` and never built; a product with a rational
        factor is a * b."""
        polynomial = PolySum()  # the terms and products over 1, reduced already
        groups: dict[Poly, list] = {}  # other den -> [PolySum of the numerators, number of terms]
        for c, a, b in terms:
            if not c:
                continue
            a = as_expr(a)
            if b is not ONE_EXPR:
                b = as_expr(b)
                if a.den == ONE and b.den == ONE:
                    polynomial.add_product(a.num, b.num, c.numerator, c.denominator)
                    continue
                a = a * b
            if a.den == ONE:
                polynomial.add(a.num, c.numerator, c.denominator)
            elif not a.is_zero:
                group = groups.get(a.den)
                if group is None:
                    group = groups[a.den] = [PolySum(), 0]
                group[0].add(a.num, c.numerator, c.denominator)
                group[1] += 1
        total = JetExpr(polynomial.value(), ONE)
        for den, (acc, count) in groups.items():
            num = acc.value()
            total = total + (JetExpr(num, den) if count == 1 else JetExpr._reduce(num, den))
        return total

    @staticmethod
    def sum(terms) -> "JetExpr":
        """The sum of terms (JetExprs or rational constants): ``combination``
        with every coefficient and second factor 1."""
        return JetExpr.combination((1, t, ONE_EXPR) for t in terms)

    def __sub__(self, other) -> "JetExpr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "JetExpr":
        return as_expr(other) + (-self)

    def __neg__(self) -> "JetExpr":
        if self.is_zero:
            return self
        return JetExpr(-self.num, self.den)

    def __mul__(self, other) -> "JetExpr":
        other = as_expr(other)
        if self.is_zero or other.is_zero:
            return ZERO_EXPR
        if self.den == ONE and self.num.is_const():
            self, other = other, self
        if other.den == ONE and (self.den == ONE or other.num.is_const()):
            # a rational-constant factor leaves a reduced pair reduced
            return JetExpr(self.num * other.num, self.den)
        return JetExpr._reduce(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "JetExpr":
        other = as_expr(other)
        if other.is_zero:
            raise DivisionByZero("division by zero expression")
        if self.is_zero:
            return self
        if other.is_rational_const:
            return JetExpr(self.num.scale(1 / other.const_value()), self.den)
        return JetExpr._reduce(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "JetExpr":
        return as_expr(other) / self

    def __pow__(self, n: int) -> "JetExpr":
        if not isinstance(n, int):
            raise TypeError("powers must be integers")
        if n == 0:
            return ONE_EXPR
        if n < 0:
            if self.is_zero:
                raise DivisionByZero("zero to a negative power")
            return JetExpr._reduce(self.den ** (-n), self.num ** (-n))
        return JetExpr(self.num ** n, self.den if self.den == ONE else self.den ** n)

    def __repr__(self):
        from .dsl import print_expr  # the one printer; cycle broken at call time
        return print_expr(self)


ZERO_EXPR = JetExpr(ZERO, ONE)
ONE_EXPR = JetExpr(Poly.const(1), ONE)


def as_expr(v) -> JetExpr:
    if isinstance(v, JetExpr):
        return v
    if isinstance(v, (int, Fraction)):
        return JetExpr.from_const(v)
    if isinstance(v, Generator):
        return JetExpr.from_gen(v)
    raise TypeError(f"cannot interpret {v!r} as a JetExpr")


# -- convenience atoms ----------------------------------------------------

def x() -> JetExpr:
    return JetExpr.from_gen(Generator(KIND_X))


def t() -> JetExpr:
    return JetExpr.from_gen(Generator(KIND_T))


def u(i: int = 0) -> JetExpr:
    return JetExpr.from_gen(jet(i))


def fn(name: str = "f", k: int = 0) -> JetExpr:
    """The k-th u-derivative of the chain symbol name: fn("r", 1) is f."""
    if name not in CHAIN_DEPTH:
        raise ValueError(f"unknown function symbol {name!r}: the chain is rhat, r, f")
    return JetExpr.from_gen(symbol_at_depth(CHAIN_DEPTH[name] + k))


def unk(name: str, k: int = 0) -> JetExpr:
    return JetExpr.from_gen(unknown_t(name, k))


def par(name: str) -> JetExpr:
    return JetExpr.from_gen(param(name))


def ln_shift() -> JetExpr:
    """The opaque generator ln(u+c)."""
    return JetExpr.from_gen(fnsym(LOG_FAMILY, 0))


def ln_w() -> JetExpr:
    """The opaque generator ln(w) of the coordinate w = u + c."""
    return JetExpr.from_gen(fnsym(LOG_W_FAMILY, 0))


def symbol_depth(g: Generator) -> int:
    """Depth of a chain symbol: rhat -2, r -1, f^(k) k."""
    return CHAIN_DEPTH[g.name] + g.index


def symbol_at_depth(d: int) -> Generator:
    """The chain symbol at depth d >= -2."""
    if d < -2:
        raise ValueError(f"no function symbol at depth {d}: the chain starts at rhat")
    return fnsym(_NAME_AT_DEPTH[min(d, 0)], max(d, 0))


# -- calculus-free operations ----------------------------------------------

def partial(e: JetExpr, g: Generator) -> JetExpr:
    """Coordinate-wise partial derivative (function symbols held fixed)."""
    return derive(e, lambda h: ONE_EXPR if h is g else None)


def _image_sum(p: Poly, groups: dict) -> JetExpr:
    """sum(dp/dg * image(g)) for the images grouped as {denominator:
    [(g, numerator)]}: one pass over p and one reduction per group."""
    parts = []
    for den, pairs in groups.items():
        acc = PolySum()
        acc.add_derivation(p, pairs)
        parts.append(JetExpr._reduce(acc.value(), den))
    return parts[0] if len(parts) == 1 else JetExpr.sum(parts)


def derive(e: JetExpr, image) -> JetExpr:
    """The derivation that maps each generator g of e to image(g).

    image(g) is None for generators the derivation annihilates.  D(num) and
    each D(q) are sums of partials times images, each accumulated in one
    pass over the monomials and reduced once per image denominator.  With
    d = const * prod q^k over the squarefree factors of the denominator and
    s = prod q over those with D(q) != 0, the quotient rule is applied once:

        D(n/d) = (D(n)*s - n * sum k*D(q)*s/q) / (d*s),

    a single reduction over d*s instead of d^2.
    """
    e = as_expr(e)
    return _derive_grouped(e, _image_groups(e, image))


def _image_groups(e: JetExpr, image) -> dict:
    """The nonzero images of e's generators as {denominator: [(g,
    numerator)]}, in key order, so that every sum repeats exactly."""
    groups: dict[Poly, list] = {}
    for g in sorted(e.generators(), key=lambda g: g.key):
        img = image(g)
        if img is not None and not img.is_zero:
            groups.setdefault(img.den, []).append((g, img.num))
    return groups


def _derive_grouped(e: JetExpr, groups: dict) -> JetExpr:
    """``derive`` with the images of e's generators grouped."""
    if not groups:
        return ZERO_EXPR
    dn = _image_sum(e.num, groups)
    if e.den == ONE:
        return dn
    moved = []  # the factors q with D(q) != 0; the others stay out of s
    s = ONE
    for q, k, _ in squarefree_factors(e.den):
        dq = _image_sum(q, groups)
        if not dq.is_zero:
            moved.append((q, k, dq))
            s = s * q
    # sum k*D(q)*s/q = s * D(d)/d
    dlog = JetExpr.combination((k, dq, JetExpr(div_exact(s, q), ONE)) for q, k, dq in moved)
    top = dn * JetExpr(s, ONE) - JetExpr(e.num, ONE) * dlog
    return top / JetExpr(e.den * s, ONE)


def subtract_derived(r: JetExpr, e: JetExpr, image) -> JetExpr:
    """r - derive(e, image).  When r, e and every image are polynomial, the
    derivative is subtracted inside one PolySum over the numerator of r, in
    the same pass over e's monomials as ``derive``; otherwise the quotient
    rule of ``derive`` applies."""
    groups = _image_groups(e, image)
    if not groups:
        return r
    if r.den == ONE and e.den == ONE and len(groups) == 1 and ONE in groups:
        acc = PolySum()
        acc.add(r.num)
        acc.add_derivation(e.num, groups[ONE], -1)
        return JetExpr(acc.value(), ONE)
    return r - _derive_grouped(e, groups)


@cache  # generators are interned: one image per generator and process
def u_image(g: Generator) -> JetExpr | None:
    """Image of g under d/du: 1 on u, 1/(u+c) on ln(u+c), 1/w on ln(w) with
    jet(0) standing for w, and on a chain symbol the symbol one level
    deeper."""
    if g.kind == KIND_FN:
        if g.name == LOG_FAMILY:
            return ONE_EXPR / (u() + par("c"))
        if g.name == LOG_W_FAMILY:
            return ONE_EXPR / u()
        return JetExpr.from_gen(symbol_at_depth(symbol_depth(g) + 1))
    return ONE_EXPR if g is jet(0) else None


def partial_u_total(e: JetExpr) -> JetExpr:
    """d/du with the function-symbol chain rule; input must be a point function."""
    e = as_expr(e)
    if e.top_jet():
        raise NotAPointFunction(f"expression depends on {jet(e.top_jet())!r}")
    return derive(e, u_image)


def _evaluate(p: Poly, mapping: dict) -> JetExpr:
    """p with the generators in mapping replaced by their values, in one
    ``JetExpr.combination``: each part of p over a monomial in those
    generators times the product of their powers, each power formed once."""
    powers = {}
    terms = []
    for outer, inner in p.split(mapping).items():
        factor = ONE_EXPR
        for ge in mono_factors(outer):
            power = powers.get(ge)
            if power is None:
                g, e = ge
                power = powers[ge] = mapping[g] ** e
            factor = power if factor is ONE_EXPR else factor * power
        terms.append((1, JetExpr(inner, ONE), factor))
    return JetExpr.combination(terms)


def substitute_map(e: JetExpr, mapping: dict) -> JetExpr:
    """Simultaneous replacement of generators by expressions, renormalized."""
    e = as_expr(e)
    gens = e.generators()
    relevant = {g: as_expr(v) for g, v in mapping.items() if g in gens}
    if not relevant:
        return e
    return _evaluate(e.num, relevant) / _evaluate(e.den, relevant)


def holds_log(e: JetExpr) -> bool:
    """True when e holds ln(u+c)."""
    return any(g.kind == KIND_FN and g.name == LOG_FAMILY for g in e.generators())


def _translate(e: JetExpr, sign: int, old: str, new: str) -> JetExpr:
    """e with u -> u + sign*c and the logarithm family old renamed to new:
    numerator and denominator are Taylor-shifted once, and only the unit of
    the denominator is renewed, since the map is a ring automorphism."""
    e = as_expr(e)
    a = Poly({param("c").bit: sign})
    ugen, old, new = jet(0), fnsym(old, 0), fnsym(new, 0)
    num = rename(taylor_shift(e.num, ugen, a), old, new)
    if e.den == ONE:
        return JetExpr(num, ONE)
    return _over_unit(num, rename(taylor_shift(e.den, ugen, a), old, new))


def to_w(e: JetExpr) -> JetExpr:
    """e in the coordinate w = u + c: u -> w - c and ln(u+c) -> ln(w), with
    jet(0) standing for w."""
    return _translate(e, -1, LOG_FAMILY, LOG_W_FAMILY)


def from_w(e: JetExpr) -> JetExpr:
    """e translated back from w = u + c: w -> u + c and ln(w) -> ln(u+c)."""
    return _translate(e, 1, LOG_W_FAMILY, LOG_FAMILY)


def substitute(e: JetExpr, g: Generator, v) -> JetExpr:
    """Spec substitution: replacing u rewrites every jet differentially."""
    from .calculus import total_x  # cycle broken at call time

    e = as_expr(e)
    v = as_expr(v)
    if g.kind == KIND_JET:
        jets = sorted(gg.index for gg in e.generators() if gg.kind == KIND_JET)
        if g.index == 0:
            mapping = {}
            image = v
            top = jets[-1] if jets else 0
            for i in range(0, top + 1):
                mapping[jet(i)] = image
                if i < top:
                    image = total_x(image)
            return substitute_map(e, mapping)
        if any(i > g.index for i in jets):
            raise InconsistentJetSubstitution(
                f"cannot replace {g!r} alone while higher jets are present")
    return substitute_map(e, {g: v})


# -- concrete nonlinearities -------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """How the abstract symbols f, r, rhat specialize.

    mode "abstract"    : leave symbols untouched.
    mode "polynomial"  : f = sum(coeffs[i] * u**i); the antiderivative
                         symbols get their closed forms with zero constants.
    mode "logshift"    : f = gamma*ln(u+c) + delta via the opaque lnuc symbol.

    ``shifted`` (log mode only): the images are written in w = u + c, where
    f = gamma*ln(w) + delta; see ``in_w``.
    """

    mode: str = "abstract"
    coeffs: tuple | None = None
    gamma: JetExpr | None = None
    delta: JetExpr | None = None
    shifted: bool = False

    @classmethod
    def abstract(cls) -> "FunctionSpec":
        return cls()

    @classmethod
    def polynomial(cls, coeffs) -> "FunctionSpec":
        return cls("polynomial", coeffs=tuple(as_expr(c) for c in coeffs))

    @classmethod
    def linear(cls, alpha="alpha", beta="beta") -> "FunctionSpec":
        a = par(alpha) if isinstance(alpha, str) else as_expr(alpha)
        b = par(beta) if isinstance(beta, str) else as_expr(beta)
        return cls.polynomial([b, a])

    @classmethod
    def quadratic(cls) -> "FunctionSpec":
        return cls.polynomial([0, 0, 1])

    @classmethod
    def log_shift(cls, gamma="gamma", delta="delta") -> "FunctionSpec":
        g = par(gamma) if isinstance(gamma, str) else as_expr(gamma)
        d = par(delta) if isinstance(delta, str) else as_expr(delta)
        return cls("logshift", gamma=g, delta=d)

    def in_w(self) -> "FunctionSpec":
        """This log spec with its images in w = u + c (jet(0) standing for
        w): an equation built with it computes in w."""
        return replace(self, shifted=True)

    def to_coordinate(self, e: JetExpr) -> JetExpr:
        """e, given in u, in the coordinate of this spec's images."""
        return to_w(e) if self.shifted else as_expr(e)

    def from_coordinate(self, e: JetExpr) -> JetExpr:
        """e, given in the coordinate of this spec's images, in u."""
        return from_w(e) if self.shifted else as_expr(e)

    def f_image(self, k: int) -> JetExpr:
        """Image of f (k = 0), r (k = -1) or rhat (k = -2) under a concrete
        f, written out; r and rhat take zero integration constants.  The log
        images are written in w = u + c (jet(0) standing for w), where the
        logarithm is ln(w), and translated back by ``from_w`` for a spec in u."""
        if self.mode == "polynomial":
            return JetExpr.sum(c * Fraction(factorial(i), factorial(i - k)) * u() ** (i - k)
                               for i, c in enumerate(self.coeffs))
        if not self.shifted:
            return from_w(self.in_w().f_image(k))
        w, uu, ln = u(), u() - par("c"), ln_w()
        if k == -2:
            return (self.gamma * w ** 2 / 2 * ln
                    - 3 * self.gamma * w ** 2 / 4 + self.delta * uu ** 2 / 2)
        if k == -1:
            return self.gamma * (w * ln - w) + self.delta * uu
        return self.gamma * ln + self.delta


# Specs are few per process (one per f branch), and so are the depths.
@lru_cache(maxsize=64)
def _chain_image(spec: FunctionSpec, d: int) -> JetExpr:
    """The image under spec of the chain symbol at depth d: f_image for
    d <= 0, and the u-derivative of the image at depth d - 1 for d >= 1, so
    each depth is derived once per spec and process."""
    if d <= 0:
        return spec.f_image(d)
    return derive(_chain_image(spec, d - 1), u_image)


def specialize_f(e: JetExpr, spec: FunctionSpec) -> JetExpr:
    """Rewrite every chain symbol according to spec, then renormalize;
    the logarithm stays opaque.  The images are memoized per spec and
    depth (``_chain_image``)."""
    e = as_expr(e)
    depths = {g: symbol_depth(g) for g in e.generators()
              if g.kind == KIND_FN and g.name in CHAIN_DEPTH}
    if spec.mode == "abstract" or not depths:
        return e
    return substitute_map(e, {g: _chain_image(spec, d) for g, d in depths.items()})
