"""Sparse multivariate polynomials over the rationals.

This is the arithmetic substrate for the whole package: generators are the
coordinates of the jet space (x, t, u and its x-derivatives), abstract
function symbols, undetermined functions of t and named parameters.  A
polynomial is a dict mapping monomials to int coefficients over one positive
int denominator, as in FLINT's fmpq_poly, so the arithmetic runs on ints and
Fractions appear only where a single coefficient leaves the layer.  A sum
of many terms or products, or a derivation, folds them into one mutable
dict in place (``PolySum``) and builds a single Poly at the end.

A monomial is one non-negative int that packs its exponent vector (Bachmann
& Schoenemann, ISSAC 1998; Monagan & Pearce, ASCM 2012): every generator
owns a FIELD_BITS-wide field, fixed when it is interned, and the exponent of
the generator is the value of its field.  The product of two monomials is
their sum, a quotient by a divisor is a difference, and the part of a
monomial in some generators is a mask.  The top bit of every field is a
guard bit that no stored monomial sets, so a product whose exponent would
exceed MAX_EXPONENT raises ExponentOverflow instead of carrying into the
next field.  (generator, exponent) pairs sorted by generator key appear only
where a monomial leaves the layer: ``Poly.items``, ``mono_factors`` and
``mono_sort_key``; the printer unpacks monomials itself and sorts their
factors by keys of its own, so no printed order depends on the order of
interning.

Exact division (``div_exact``) is sparse heap division on packed monomials,
in the order of the packed ints themselves: lex in field order, a monomial
order because no field carries.  It divides by the primitive part of the
divisor, so by Gauss's lemma every quotient coefficient is an integer, and
it fails at the first remainder term whose monomial or integer coefficient
the divisor's leading term does not divide.  That order only steers the
work: a quotient is unique, so no result depends on it.

Two invariants carry this: generators are interned, so object identity is
their equality and their hash; and a polynomial is canonical (no zero
coefficient, and the denominator is coprime with the coefficients), so
equality of values is plain structural equality and the zero polynomial is
the empty dict over 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import or_

from .errors import ExponentOverflow


# Generator kinds, in canonical order: x < t < u_{ix} < function symbols
# < undetermined functions of t < parameters.
KIND_X = 0
KIND_T = 1
KIND_JET = 2
KIND_FN = 3
KIND_UNKNOWN = 4
KIND_PARAM = 5

# Width of one exponent field of a packed monomial.  The top bit of a field
# is its guard bit, so an exponent is at most MAX_EXPONENT.
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1
_GUARD = 1 << (FIELD_BITS - 1)

# Field index -> generator, in interning order, and the guard bits of every
# field assigned so far.
_FIELD_GENS: list = []
_GUARDS = 0


class Generator:
    """One coordinate of the differential-polynomial ring.

    Interned: one instance per (kind, name, index) key, so the inherited
    identity equality and hash are exact.  Ordering goes through ``key``.
    Interning also assigns the generator the next free field of packed
    monomials, once: its exponent in a monomial m is
    ``(m >> shift) & (2**FIELD_BITS - 1)``, and ``bit == 1 << shift`` is the
    monomial of the generator itself.  The field's top bit is a guard bit,
    never set in a stored monomial.
    """

    __slots__ = ("kind", "name", "index", "key", "shift", "bit")

    _cache: dict[tuple, "Generator"] = {}

    def __new__(cls, kind: int, name: str = "", index: int = 0):
        global _GUARDS
        key = (kind, name, index)
        gen = cls._cache.get(key)
        if gen is None:
            gen = object.__new__(cls)
            gen.kind = kind
            gen.name = name
            gen.index = index
            gen.key = key
            gen.shift = FIELD_BITS * len(_FIELD_GENS)
            gen.bit = 1 << gen.shift
            _FIELD_GENS.append(gen)
            _GUARDS |= _GUARD << gen.shift
            cls._cache[key] = gen
        return gen

    def __repr__(self):
        from .dsl import gen_name  # the one printer; cycle broken at call time
        return gen_name(self)


X = Generator(KIND_X)
T = Generator(KIND_T)


def jet(i: int) -> Generator:
    if i < 0:
        raise ValueError("jet index must be >= 0")
    return Generator(KIND_JET, "", i)


def fnsym(name: str, k: int = 0) -> Generator:
    return Generator(KIND_FN, name, k)


def unknown_t(name: str, k: int = 0) -> Generator:
    return Generator(KIND_UNKNOWN, name, k)


def param(name: str) -> Generator:
    return Generator(KIND_PARAM, name)


# The packed monomial with every exponent 0.
EMPTY_MONO = 0


def _overflow(m: int) -> ExponentOverflow:
    """The error for a monomial m with a guard bit set."""
    guards = m & _GUARDS
    g = _FIELD_GENS[((guards & -guards).bit_length() - 1) // FIELD_BITS]
    return ExponentOverflow(f"exponent overflow: the exponent of {g!r} exceeds {MAX_EXPONENT}")


def monomial(pairs) -> int:
    """The packed monomial of (generator, exponent) pairs, exponents >= 0."""
    m = 0
    for g, e in pairs:
        if e < 0:
            raise ValueError("negative exponent in a monomial")
        if e > MAX_EXPONENT:
            raise _overflow(_GUARD << g.shift)
        m += e << g.shift
        if m & _GUARDS:
            raise _overflow(m)
    return m


def _unpack(m: int):
    """(generator, exponent) for each nonzero field of m, in field order."""
    while m:
        g = _FIELD_GENS[((m & -m).bit_length() - 1) // FIELD_BITS]
        e = (m >> g.shift) & _FIELD_MASK
        yield g, e
        m -= e << g.shift


def mono_factors(m: int) -> tuple:
    """The (generator, exponent) pairs of m with exponent > 0, sorted by key."""
    return tuple(sorted(_unpack(m), key=lambda ge: ge[0].key))


def mono_sort_key(m: int):
    """Fixed total order on monomials: it picks leading terms, which set the
    sign of a reduced denominator and the pivots of ``linear_relations``,
    and orders the scan's constraints.  The printer in dsl has an order of
    its own."""
    factors = mono_factors(m)
    return (sum(e for _, e in factors), tuple((g.key, e) for g, e in factors))


class Poly:
    """Sparse polynomial sum(c * m for m, c in terms.items()) / den.

    Immutable once built.  Every coefficient is a nonzero int, den is an
    int >= 1 and gcd(den, *coefficients) == 1; the constructor takes its
    arguments as given, and ``_normalized`` restores the gcd condition.
    """

    __slots__ = ("terms", "den", "_hash", "_gens")

    def __init__(self, terms: dict | None = None, den: int = 1):
        self.terms = {} if terms is None else terms
        self.den = den
        self._hash = None
        self._gens = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return ZERO
        return cls({EMPTY_MONO: c.numerator}, c.denominator)

    @classmethod
    def gen(cls, g: Generator) -> "Poly":
        return cls({g.bit: 1})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONO in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[EMPTY_MONO], self.den)

    def items(self):
        """(mono_factors(monomial), Fraction coefficient) pairs."""
        den = self.den
        return ((mono_factors(m), Fraction(c, den)) for m, c in self.terms.items())

    def generators(self) -> frozenset:
        """The generators of the monomials, kept: a Poly is immutable."""
        if self._gens is None:
            self._gens = frozenset(g for g, _ in _unpack(reduce(or_, self.terms, 0)))
        return self._gens

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.terms.items()), self.den))
        return self._hash

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, a PolySum of the two."""
        if not other.terms:
            return self
        if not self.terms:
            return other if sign == 1 else -other
        acc = PolySum()
        acc.add(self)
        acc.add(other, sign)
        return acc.value()

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return ZERO
        if other.is_const():
            return self._times(other.terms[EMPTY_MONO], other.den)
        if self.is_const():
            return other._times(self.terms[EMPTY_MONO], self.den)
        res: dict = {}
        get = res.get
        oterms = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in oterms:
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
        # exponents below the guard bit add without a carry between fields,
        # so an overflow shows as a guard bit of the sum
        overflow = reduce(or_, res) & _GUARDS
        if overflow:
            raise _overflow(overflow)
        if 0 in res.values():
            res = {m: c for m, c in res.items() if c}
        return _normalized(res, self.den * other.den)

    def scale(self, c) -> "Poly":
        """self * c for an int or Fraction c."""
        if not c:
            return ZERO
        return self._times(c.numerator, c.denominator)

    def _times(self, p: int, q: int) -> "Poly":
        """self * p/q for coprime ints p != 0 and q > 0."""
        den = self.den
        if den > 1 and p != 1:
            g = _int_gcd(p, den)
            p //= g
            den //= g
        if p == 1:
            if q == 1:
                return self if den == self.den else Poly(self.terms, den)
            return _normalized(self.terms, den * q)
        terms = {m: v * p for m, v in self.terms.items()}
        # p is coprime with den, so only a factor of q can divide out
        return Poly(terms, den) if q == 1 else _normalized(terms, den * q)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power on Poly")
        if n == 0:
            return ONE
        # square and multiply, starting from the base: p**1 is p itself
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- structure ------------------------------------------------------

    def affine_slope(self, g: Generator) -> "Poly | None":
        """dself/dg when self has degree exactly 1 in g, else None: one pass
        over the terms, which ends at the first exponent above 1."""
        shift, bit = g.shift, g.bit
        slope = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD_MASK
            if e:
                if e > 1:
                    return None
                slope[m - bit] = c
        return _normalized(slope, self.den) if slope else None

    def antiderivative(self, g: Generator) -> "Poly":
        """The antiderivative in g that vanishes at g = 0, term by term: each
        monomial gains one power of g and its coefficient is taken over the
        lcm of the new exponents, so the result is normalized once.  As in
        ``__mul__``, an exponent past MAX_EXPONENT shows as a guard bit."""
        if not self.terms:
            return ZERO
        shift, bit = g.shift, g.bit
        steps = [((m >> shift) & _FIELD_MASK) + 1 for m in self.terms]
        den = _int_lcm(*set(steps))
        terms = {m + bit: c * (den // k) for (m, c), k in zip(self.terms.items(), steps)}
        overflow = reduce(or_, terms) & _GUARDS
        if overflow:
            raise _overflow(overflow)
        return _normalized(terms, self.den * den)

    def split(self, gens) -> dict:
        """{outer monomial over gens: inner Poly free of gens}.

        self == sum(outer * inner); each inner part is nonzero.
        """
        mask = 0
        for g in gens:
            mask |= _FIELD_MASK << g.shift
        buckets: dict = {}
        for m, c in self.terms.items():
            outer = m & mask
            buckets.setdefault(outer, {})[m - outer] = c
        return {m: _normalized(terms, self.den) for m, terms in buckets.items()}

    def leading(self):
        """(monomial, coeff) maximal in the canonical monomial order."""
        if not self.terms:
            return EMPTY_MONO, Fraction(0)
        m = max(self.terms, key=mono_sort_key)
        return m, Fraction(self.terms[m], self.den)

    def content(self) -> Fraction:
        """Positive rational c with self/c a primitive integer polynomial."""
        if not self.terms:
            return Fraction(1)
        return Fraction(_int_gcd(*self.terms.values()), self.den)

    def unit(self) -> Fraction:
        """The content with the sign of the leading coefficient: self/unit
        is primitive with a positive coefficient on its leading monomial."""
        c = self.content()
        return -c if self.leading()[1] < 0 else c

    def __repr__(self):
        from .dsl import print_poly  # the one printer; cycle broken at call time
        return print_poly(self)


ZERO = Poly({})
ONE = Poly({EMPTY_MONO: 1})


def _normalized(terms: dict, den: int) -> Poly:
    """The canonical Poly of terms/den: one gcd pass, only when den > 1."""
    if den > 1:
        g = _int_gcd(den, *terms.values())
        if g > 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
    return Poly(terms, den)


class PolySum:
    """A sum of Poly terms added in place: a mutable dict of packed monomials
    over one running int denominator, the lcm of the terms' (Monagan &
    Pearce, CASC 2007).  A term, or a product of two (``add_product``), is
    folded into the dict as it comes, with no intermediate Poly; ``value``
    drops the cancelled monomials and normalizes once.  An accumulator lives
    inside one call: ``value`` ends its use.
    """

    __slots__ = ("terms", "den")

    def __init__(self):
        self.terms: dict = {}
        self.den = 1

    def _over(self, den: int) -> int:
        """Bring the sum over lcm(self.den, den); the factor that takes a
        numerator over den to the new common denominator."""
        g = _int_gcd(self.den, den)
        f = den // g
        if f != 1:
            terms = self.terms
            for m in terms:
                terms[m] *= f
            self.den *= f
        return self.den // den

    def add(self, p: Poly, num: int = 1, den: int = 1) -> None:
        """self += p * num/den, for ints num and den > 0."""
        if not p.terms or not num:
            return
        k = num * self._over(p.den * den)
        terms = self.terms
        if not terms:
            self.terms = {m: c * k for m, c in p.terms.items()} if k != 1 else dict(p.terms)
            return
        get = terms.get
        for m, c in p.terms.items():
            terms[m] = get(m, 0) + c * k

    def add_product(self, p: Poly, q: Poly, num: int = 1, den: int = 1) -> None:
        """self += p * q * num/den, for ints num and den > 0, with no product
        built: each pair of terms is folded into the dict as it comes.  As in
        ``Poly.__mul__``, an exponent past MAX_EXPONENT raises ExponentOverflow,
        here before the sum is touched: the largest exponent of a field in
        p * q is the sum of its largest in p and in q, and the or of a field's
        exponents bounds their largest from above."""
        if not p.terms or not q.terms or not num:
            return
        if q.is_const():
            return self.add(p, num * q.terms[EMPTY_MONO], den * q.den)
        if p.is_const():
            return self.add(q, num * p.terms[EMPTY_MONO], den * p.den)
        if (reduce(or_, p.terms) + reduce(or_, q.terms)) & _GUARDS:
            top = reduce(_mono_max, p.terms) + reduce(_mono_max, q.terms)
            if top & _GUARDS:
                raise _overflow(top)
        k = num * self._over(p.den * q.den * den)
        if len(p.terms) > len(q.terms):
            p, q = q, p
        inner = [(m, c * k) for m, c in q.terms.items()] if k != 1 else q.terms.items()
        terms = self.terms
        get = terms.get
        for m1, c1 in p.terms.items():
            for m2, c2 in inner:
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2

    def add_derivation(self, p: Poly, pairs, sign: int = 1) -> None:
        """self += sign * sum(dp/dg * img for g, img in pairs), for a
        sequence of (generator, Poly image) pairs and sign +-1, in one pass
        over the monomials of p; no partial derivative is built."""
        if not p.terms:
            return
        # over p.den * lcm of the image denominators, each image scaled to it
        img_den = reduce(_int_lcm, (img.den for _, img in pairs), 1)
        f = self._over(p.den * img_den)
        scaled = []
        for g, img in pairs:
            k = sign * f * (img_den // img.den)
            scaled.append((g.shift, g.bit, [(m, c * k) for m, c in img.terms.items()]))
        terms = self.terms
        get = terms.get
        for m, c in p.terms.items():
            for shift, bit, img in scaled:
                e = (m >> shift) & _FIELD_MASK
                if e:
                    base = m - bit
                    ce = c * e
                    for m2, c2 in img:
                        mm = base + m2
                        terms[mm] = get(mm, 0) + ce * c2
        # as in Poly.__mul__: an exponent past MAX_EXPONENT shows as a guard bit
        overflow = reduce(or_, terms, 0) & _GUARDS
        if overflow:
            raise _overflow(overflow)

    def value(self) -> Poly:
        """The canonical Poly of the sum."""
        terms = self.terms
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if not terms:
            return ZERO
        return _normalized(terms, self.den)


# -- exact division and gcd ---------------------------------------------

def _to_univariate(p: Poly, v: Generator) -> list[Poly]:
    """Dense coefficient list in v, ascending powers."""
    shift = v.shift
    parts = p.split((v,))
    coeffs = [ZERO] * ((max(parts, default=0) >> shift) + 1)
    for m, inner in parts.items():
        coeffs[m >> shift] = inner
    return coeffs


def _from_univariate(coeffs: list[Poly], v: Generator) -> Poly:
    total = ZERO
    for e, c in enumerate(coeffs):
        if c.terms:
            # c is free of v, so adding v^e to each monomial keeps it canonical
            mono = e << v.shift
            total = total + Poly({m + mono: k for m, k in c.terms.items()}, c.den)
    return total


def horner(p: Poly, v: Generator, a: Poly) -> Poly:
    """p with v replaced by a: Horner's rule on the coefficients of p in v,
    in Poly arithmetic."""
    coeffs = _to_univariate(p, v)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * a + c
    return acc


def taylor_shift(p: Poly, v: Generator, a: Poly) -> Poly:
    """p(v + a) for a free of v, by Horner's rule with no reductions: the
    baseline of von zur Gathen & Gerhard, "Fast algorithms for Taylor shifts
    and certain difference equations" (ISSAC 1997), and the method of choice
    at degrees of about 20."""
    return horner(p, v, Poly.gen(v) + a)


def rename(p: Poly, old: Generator, new: Generator) -> Poly:
    """p with the generator old renamed to new, which p does not hold: each
    exponent moves from old's field to new's, so no two terms meet."""
    shift = old.shift
    if not reduce(or_, p.terms, 0) >> shift & _FIELD_MASK:
        return p
    terms = {}
    for m, c in p.terms.items():
        e = m >> shift & _FIELD_MASK
        terms[m - (e << shift) + (e << new.shift)] = c
    return Poly(terms, p.den)


def div_exact(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b, or None when b does not divide a.

    Sparse division with a heap (Johnson, SIGSAM Bull. 8(3), 1974; Monagan &
    Pearce, J. Symbolic Comput. 46(7), 2011) in the order of the packed ints:
    the integer numerator of a is divided by b', the integer numerator of b
    over its content g.  b' is primitive, so by Gauss's lemma an exact
    quotient has integer coefficients.  The remainder is a dict with a
    max-heap of its monomials.  Its largest monomial m is popped, and the
    division fails as soon as the leading monomial of b' does not divide m
    or the leading coefficient of b' does not divide m's coefficient;
    otherwise the quotient term cancels m, and its products with the other
    terms of b' are subtracted.  Each of those is smaller than m, so no
    popped monomial comes back.  A monomial b takes one pass over a and no
    heap.  The quotient is normalized once.
    """
    bt = b.terms
    if not bt:
        raise ZeroDivisionError("polynomial division by zero")
    if not a.terms:
        return ZERO
    g = _int_gcd(*bt.values())
    lm = max(bt)
    lc = bt[lm] // g
    # lm divides m iff every guard bit survives (m | guards) - lm, the
    # fieldwise test of _fields_at_least
    guards = _GUARDS
    quot = {}
    if len(bt) == 1:
        # lc is +-1
        for m, c in a.terms.items():
            if ((m | guards) - lm) & guards != guards:
                return None
            quot[m - lm] = c * lc
    else:
        # the other terms of b', negated: each step adds their products
        rest = [(m, -c // g) for m, c in bt.items() if m != lm]
        # t times them forms an exponent past MAX_EXPONENT exactly where
        # t + top, with top their fieldwise maximum, sets a guard bit
        top = reduce(_mono_max, (m for m, _ in rest))
        rem = dict(a.terms)
        heap = [-m for m in rem]
        heapify(heap)
        get = rem.get
        while heap:
            m = -heappop(heap)
            c = rem.pop(m)
            if not c:
                continue
            if ((m | guards) - lm) & guards != guards:
                return None
            qc, r = divmod(c, lc)
            if r:
                return None
            t = m - lm
            quot[t] = qc
            if (t + top) & guards:
                raise _overflow(t + top)
            for mb, cb in rest:
                mm = t + mb
                old = get(mm)
                if old is None:
                    rem[mm] = qc * cb
                    heappush(heap, -mm)
                else:
                    rem[mm] = old + qc * cb
    # a/b = quot * b.den / (a.den * g)
    if b.den != 1:
        quot = {m: c * b.den for m, c in quot.items()}
    return _normalized(quot, a.den * g)


def _prem(a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Pseudo-remainder of dense univariate coefficient lists."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        while a and a[-1].is_zero():
            a.pop()
        da = len(a) - 1
        if da < db:
            return a
        shift = da - db
        la = a[-1]
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - la * c
        a.pop()


def _primitive_in(coeffs: list[Poly]) -> tuple[Poly, list[Poly]]:
    """(content, primitive part) of a dense coefficient list in some variable.

    The content is a primitive polynomial.  The primitive part has the
    rational content of its coefficients divided out as well: a unit over Q,
    but one that grows geometrically along a pseudo-remainder sequence if it
    is kept.
    """
    cont = ONE
    if not any(c.terms and c.is_const() for c in coeffs):
        cont = ZERO
        for c in coeffs:
            cont = poly_gcd(cont, c)
            if cont == ONE:
                break
        if cont != ONE:
            coeffs = [div_exact(c, cont) for c in coeffs]
    rational = [c.content() for c in coeffs if c.terms]
    unit = Fraction(reduce(_int_gcd, (k.numerator for k in rational)),
                    reduce(_int_lcm, (k.denominator for k in rational)))
    if unit != 1:
        coeffs = [c.scale(1 / unit) for c in coeffs]
    return cont, coeffs


def _fields_at_least(a: int, b: int) -> int:
    """The whole fields in which the exponent in a is >= the one in b.

    Per field, (a | guard) - b is 2**(FIELD_BITS-1) + a_f - b_f, positive, so
    no field borrows from the next and the guard bit survives exactly where
    a_f >= b_f; each surviving guard bit then widens to its whole field.
    """
    ge = ((a | _GUARDS) - b) & _GUARDS
    return (ge << 1) - (ge >> (FIELD_BITS - 1))


def _mono_max(a: int, b: int) -> int:
    """Fieldwise maximum: the lcm of two monomials."""
    return b ^ ((a ^ b) & _fields_at_least(a, b))


def _var_degrees(p: Poly) -> dict:
    return dict(_unpack(reduce(_mono_max, p.terms, 0)))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd in Q[generators] with a positive leading coefficient;
    constants collapse to 1.

    The recursive content / primitive PRS algorithm (Brown, J. ACM 18, 1971;
    Geddes, Czapor & Labahn, Algorithms for Computer Algebra, 1992, ch. 7):
    in a main variable v, the one of smallest worst-case degree, the gcd is
    the gcd of the two contents in v, a recursive call without v, times the
    last nonzero remainder of the pseudo-remainder sequence of the primitive
    parts, each remainder made primitive in v.  When a generator v occurs
    in one operand only, the gcd is that of the other operand and of the
    coefficients in v, folded from the operand free of v so that every gcd
    on the way divides it.
    """
    if a.is_zero():
        return _make_primitive(b)
    if b.is_zero():
        return _make_primitive(a)
    if a.is_const() or b.is_const():
        return ONE
    da = _var_degrees(a)
    db = _var_degrees(b)
    only = da.keys() ^ db.keys()
    if only:
        v = min(only, key=lambda g: g.key)
        if v in db:
            a, b = b, a
        for c in _to_univariate(a, v):
            if c.terms:
                b = poly_gcd(b, c)
                if b == ONE:
                    return ONE
        return b
    v = min(da.keys() | db.keys(), key=lambda g: (max(da.get(g, 0), db.get(g, 0)), g.key))
    ca, pa = _primitive_in(_to_univariate(a, v))
    cb, pb = _primitive_in(_to_univariate(b, v))
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while len(pb) > 1:
        r = _prem(pa, pb)
        if not r:
            break
        pa, pb = pb, _primitive_in(r)[1]
    return _make_primitive(poly_gcd(ca, cb) * _from_univariate(pb, v))


def _make_primitive(p: Poly) -> Poly:
    """p over its unit; ONE for a nonzero constant."""
    if p.is_const():
        return ONE if p.terms else ZERO
    return p.scale(1 / p.unit())


# -- squarefree factorization ---------------------------------------------

# Distinct denominators are few (17 over Theorems 1-3 on the log branch), so
# a small memo holds all of them.
_FACTOR_MEMO_SIZE = 256


@lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def squarefree_factors(p: Poly) -> tuple:
    """Pairwise-coprime squarefree factors (q, e, certified) of p.

    p is a nonzero rational constant times the product of the q**e; each q
    is primitive with a positive leading coefficient, and each irreducible
    factor of q involves every generator of q.  ``certified`` marks a q
    known to be irreducible over Q: it has degree 1 in some generator w and
    its two coefficients in w have a constant gcd.  The gcd condition holds
    for every q by the construction, because a nonconstant gcd would be a
    factor of q free of w.
    """
    return tuple((q, e, 1 in _var_degrees(q).values()) for q, e in _coprime_squarefree(p))


def _coprime_squarefree(p: Poly) -> list:
    """A monomial's generators at their exponents; otherwise content in each
    generator split off recursively, then Yun's algorithm.

    Once p has constant content in every generator, each irreducible factor
    involves every generator of p, so Yun's squarefree decomposition in any
    one of them (Yun, SYMSAC 1976) needs no further splitting.
    """
    p = _make_primitive(p)
    if p.is_const():
        return []
    if len(p.terms) == 1:
        (m,) = p.terms
        return [(Poly.gen(g), e) for g, e in mono_factors(m)]
    degs = _var_degrees(p)
    gens = sorted(degs, key=lambda g: g.key)
    for w in gens:
        cont, coeffs = _primitive_in(_to_univariate(p, w))
        if not cont.is_const():
            return _coprime_squarefree(cont) + _coprime_squarefree(_from_univariate(coeffs, w))
    v = min(gens, key=lambda g: (degs[g], g.key))
    dp = _d(p, v)
    b = poly_gcd(p, dp)
    if b.is_const():
        return [(p, 1)]
    c = div_exact(p, b)
    d = div_exact(dp, b) - _d(c, v)
    out = []
    e = 1
    while not c.is_const():
        a = poly_gcd(c, d)
        if not a.is_const():
            out.append((_make_primitive(a), e))
            c = div_exact(c, a)
            d = div_exact(d, a)
        d = d - _d(c, v)
        e += 1
    return out


def _d(p: Poly, v: Generator) -> Poly:
    acc = PolySum()
    acc.add_derivation(p, ((v, ONE),))
    return acc.value()
