"""Expression DSL: parser and deterministic pretty-printer.

Surface syntax: jets u, u_x, u_xx, u_xxx (up to four x's), u_4x / u_{4}x;
independent variables x, t; function symbols f(u), f'(u), df^k, r(u),
rhat(u), ln(u+c); any other identifier is a named parameter; integer
rationals with + - * / ^ and parentheses, evaluated straight into JetExpr.
A series literal is such an expression in xi, one more generator, whose
divisors (right operands of / and bases of negative powers) hold a single
power of xi in their numerators; parse_series reads its xi-coefficients.
A trailing + O(xi^k), as printed, makes the series inexact, known from
xi^(k+1) on.

The printer emits the canonical form: numerator and denominator as sums of
monomials in a fixed dominance order (higher jets first, parameters last
inside a product), jets spelled u_x/u_xx/u_xxx below order four and
numerically from u_4x on.  parse(print(e)) reproduces e exactly.  It is the
only printer: the repr of a generator, Poly, JetExpr and PsdSeries calls it.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import DslSyntaxError
from .expr import (CHAIN_DEPTH, ONE_EXPR, JetExpr, as_expr, fn, ln_shift, par, u, x as x_atom,
                   t as t_atom)
from .poly import (
    FIELD_BITS,
    KIND_FN,
    KIND_JET,
    KIND_PARAM,
    KIND_T,
    KIND_UNKNOWN,
    KIND_X,
    ONE as POLY_ONE,
    Poly,
    _FIELD_GENS,
    _FIELD_MASK,
    mono_factors,
    param,
)
from .series import PsdSeries

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<num>\d+)
    | (?P<ujet>u_\{(?P<braced>\d+)\}x | u_(?P<digits>\d+)x | u_(?P<xs>x{1,4})(?![A-Za-z0-9_']))
    | (?P<dfk>df\^(?P<dford>\d+))
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*'*)
    | (?P<op>\*\*|[-+*/^()])
""", re.VERBOSE)

# Deepest nesting of parentheses and unary signs the parser accepts.  A level
# costs up to eight Python frames (``f(`` ... ``)``), so 64 levels stay well
# below the default recursion limit of 1000: over-deep input is a syntax
# error, not a crash.
MAX_DEPTH = 64


# The series variable of series literals.
XI = param("xi")


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}",
                                 line, pos - line_start + 1)
        if not m.group("ws"):
            col = pos - line_start + 1
            if m.group("num"):
                tokens.append(_Token("num", int(m.group("num")), line, col))
            elif m.group("ujet"):
                if m.group("braced") is not None:
                    k = int(m.group("braced"))
                elif m.group("digits") is not None:
                    k = int(m.group("digits"))
                else:
                    k = len(m.group("xs"))
                tokens.append(_Token("jet", k, line, col))
            elif m.group("dfk"):
                tokens.append(_Token("dfk", int(m.group("dford")), line, col))
            elif m.group("name"):
                tokens.append(_Token("name", m.group("name"), line, col))
            else:
                op = m.group("op")
                tokens.append(_Token("op", "^" if op == "**" else op, line, col))
        else:
            nl = m.group("ws").count("\n")
            if nl:
                line += nl
                line_start = pos + m.group("ws").rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token, expected=()):
        raise DslSyntaxError(message, tok.line, tok.column, expected)

    def nested(self, tok: _Token, inner):
        """inner() one nesting level below tok, which opens that level."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels", tok)
        v = inner()
        self.depth -= 1
        return v

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            self.error(f"expected {op!r}", tok, expected=(op,))
        return self.advance()

    def parse(self) -> JetExpr:
        v = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.error("unexpected trailing input", tok)
        return v

    def expr(self) -> JetExpr:
        """A sum of signed terms, summed once by ``JetExpr.combination``."""
        terms = [(1, self.term(), ONE_EXPR)]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.advance()
                terms.append((1 if tok.value == "+" else -1, self.term(), ONE_EXPR))
            elif len(terms) == 1:
                return terms[0][1]
            else:
                return JetExpr.combination(terms)

    def term(self) -> JetExpr:
        v = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "*/":
                self.advance()
                rhs = self.factor()
                v = v * rhs if tok.value == "*" else v / self.divisor(rhs, tok)
            else:
                return v

    def factor(self) -> JetExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.value in "+-":
            self.advance()
            v = self.nested(tok, self.factor)
            return -v if tok.value == "-" else v
        return self.power()

    def power(self) -> JetExpr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            n = self.integer_exponent()
            return self.divisor(base, tok) ** n if n < 0 else base ** n
        return base

    def divisor(self, d: JetExpr, tok: _Token) -> JetExpr:
        """d, refused at tok unless its numerator holds a single power of xi,
        so that every xi-denominator is a monomial."""
        if len(d.num.split((XI,))) > 1:
            self.error("cannot divide by a sum of xi powers", tok)
        return d

    def integer_exponent(self) -> int:
        tok = self.peek()
        sign = 1
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            inner = self.nested(tok, self.integer_exponent)
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.value in "+-":
            self.advance()
            sign = -1 if tok.value == "-" else 1
            tok = self.peek()
        if tok.kind != "num":
            self.error("expected an integer exponent", tok, expected=("integer",))
        self.advance()
        return sign * tok.value

    def atom(self) -> JetExpr:
        tok = self.advance()
        if tok.kind == "num":
            return as_expr(tok.value)
        if tok.kind == "jet":
            return u(tok.value)
        if tok.kind == "dfk":
            self.maybe_call_u()
            return fn("f", tok.value)
        if tok.kind == "op" and tok.value == "(":
            v = self.nested(tok, self.expr)
            self.expect_op(")")
            return v
        if tok.kind == "name":
            return self.named_atom(tok)
        self.error("expected a value", tok,
                   expected=("number", "identifier", "("))

    def maybe_call_u(self) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            inner = self.nested(tok, self.expr)
            self.expect_op(")")
            if inner != u(0):
                self.error("function symbols take the argument (u)", tok)

    def named_atom(self, tok: _Token) -> JetExpr:
        name = tok.value
        primes = len(name) - len(name.rstrip("'"))
        stem = name.rstrip("'")
        if stem == "u":
            if primes:
                self.error("u takes no primes", tok)
            return u(0)
        if stem == "x" and not primes:
            return x_atom()
        if stem == "t" and not primes:
            return t_atom()
        if stem == "xi" and not primes:
            self.error("xi is only allowed in series contexts", tok)
        if stem == "ln":
            nxt = self.peek()
            if nxt.kind != "op" or nxt.value != "(":
                self.error("ln requires the argument (u+c)", nxt, expected=("(",))
            self.advance()
            inner = self.nested(nxt, self.expr)
            self.expect_op(")")
            if inner != u(0) + par("c"):
                self.error("ln argument must be u+c", tok)
            return ln_shift()
        if stem in CHAIN_DEPTH:
            self.maybe_call_u()
            return fn(stem, primes)
        if primes:
            self.error(f"primes are reserved for function symbols, got {name!r}", tok)
        return par(stem)


class _SeriesParser(_Parser):
    def atom(self) -> JetExpr:
        tok = self.peek()
        if tok.kind == "name" and tok.value == "xi":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "^":
                self.advance()
                return JetExpr.from_gen(XI) ** self.integer_exponent()
            return JetExpr.from_gen(XI)
        return super().atom()


def parse(text: str) -> JetExpr:
    """Parse an expression; xi is rejected here."""
    return _Parser(text).parse()


def _xi_power(mono: int) -> int:
    """The exponent of a monomial in xi alone."""
    return sum(e for _, e in mono_factors(mono))


# The window of an inexact series, "+ O(xi^k)" or "+ O(xi^(k))", ending it;
# re compiles it at its first use, not at import.
_WINDOW = r"\+\s*O\(xi\^(\(-?\d+\)|-?\d+)\)\s*$"


def parse_series(text: str) -> PsdSeries:
    """Parse a series literal: an expression in xi whose divisors hold a
    single power of xi, so its denominator is xi^k times a xi-free d.  After
    a trailing + O(xi^k) the series is known from xi^(k+1) on, and no term
    may sit below that."""
    window = re.search(_WINDOW, text)
    parser = _SeriesParser(text[:window.start()] if window else text)
    v = parser.parse()
    (low, d), = v.den.split((XI,)).items()
    d = JetExpr(d, POLY_ONE)
    k = _xi_power(low)
    coeffs = {_xi_power(m) - k: JetExpr(c, POLY_ONE) / d for m, c in v.num.split((XI,)).items()}
    floor = int(window.group(1).strip("()")) + 1 if window else None
    if floor is not None and min(coeffs, default=floor) < floor:
        parser.error(f"a term below the window O(xi^{floor - 1})", parser.tokens[-1])
    return PsdSeries.from_coeffs(coeffs, exact=floor is None, bottom=floor)


# -- printing -----------------------------------------------------------------


def gen_name(g) -> str:
    """The input spelling of one generator."""
    if g.kind == KIND_X:
        return "x"
    if g.kind == KIND_T:
        return "t"
    if g.kind == KIND_JET:
        if g.index == 0:
            return "u"
        if g.index <= 3:
            return "u_" + "x" * g.index
        return f"u_{g.index}x"
    if g.kind == KIND_FN:
        if g.name == "lnuc":
            return "ln(u+c)"
        if g.name == "f":
            if g.index <= 3:
                return "f" + "'" * g.index + "(u)"
            return f"df^{g.index}"
        return f"{g.name}(u)"  # r or rhat; fn folds their derivatives into f's
    if g.kind == KIND_UNKNOWN:
        if g.index == 0:
            return g.name
        if g.index == 1:
            return f"d{g.name}/dt"
        return f"d^{g.index}{g.name}/dt^{g.index}"
    return g.name


# display dominance: higher jets dominate, then function symbols and
# unknowns, then x and t, parameters least
_PRINT_RANK = {KIND_JET: 0, KIND_FN: 1, KIND_UNKNOWN: 2, KIND_X: 3, KIND_T: 4,
               KIND_PARAM: 5}

# factor order inside a product: parameters, x, t, unknowns, symbols, jets
_FACTOR_RANK = {KIND_PARAM: 0, KIND_X: 1, KIND_T: 2, KIND_UNKNOWN: 3,
                KIND_FN: 4, KIND_JET: 5}


def _dominance(g) -> tuple:
    return (0, -g.index) if g.kind == KIND_JET else (1, _PRINT_RANK[g.kind], g.name, g.index)


# Per packed field, (dominance rank, factor rank, spelling) of its generator.
# A rank is a position among the interned generators, so the table is rebuilt
# when a generator is interned.
_FIELDS: list = []


def _field_table() -> list:
    if len(_FIELDS) != len(_FIELD_GENS):
        dom, fac = ({g: i for i, g in enumerate(sorted(_FIELD_GENS, key=key))} for key in
                    (_dominance, lambda g: (_FACTOR_RANK[g.kind], g.name, g.index)))
        _FIELDS[:] = [(dom[g], fac[g], gen_name(g)) for g in _FIELD_GENS]
    return _FIELDS


def _print_term(mono: int, table: list) -> tuple:
    """(dominance key, product body) of a packed monomial.  The key sorts
    its factors by dominance, then higher exponent first, so higher jets,
    then higher powers, print first; the body spells the factors in factor
    order.  A field past the interned generators raises IndexError."""
    if not mono:
        return (1, ()), ""  # pure constants print last
    key, factors = [], []
    while mono:
        i = ((mono & -mono).bit_length() - 1) // FIELD_BITS
        dom, fac, name = table[i]
        e = (mono >> i * FIELD_BITS) & _FIELD_MASK
        mono -= e << i * FIELD_BITS
        key.append((dom << FIELD_BITS) - e)
        factors.append((fac, name if e == 1 else f"{name}^{e}"))
    key.sort()
    factors.sort()
    return (0, tuple(key)), "*".join(spelled for _, spelled in factors)


def print_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    den = p.den
    table = _field_table()
    terms = sorted(((*_print_term(m, table), c) for m, c in p.terms.items()),
                   key=lambda t: t[0])
    parts = []
    for _, body, c in terms:
        num, d = abs(c), den
        if d > 1:
            g = gcd(num, d)
            num, d = num // g, d // g
        mag = f"{num}/{d}" if d > 1 else str(num)
        if not body:
            text = mag
        elif mag == "1":
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f" + {text}" if c > 0 else f" - {text}")
    return "".join(parts)


def print_expr(e: JetExpr) -> str:
    e = as_expr(e)
    num = print_poly(e.num)
    if e.den == POLY_ONE:
        return num
    return f"({num})/({print_poly(e.den)})"


def print_series(s: PsdSeries) -> str:
    parts = []
    for i, c in s.items():
        if i == 0:
            parts.append(print_expr(c) if c.den == POLY_ONE and len(c.num.terms) == 1
                         else f"({print_expr(c)})")
        else:
            xi = "xi" if i == 1 else f"xi^{i}" if i > 0 else f"xi^({i})"
            if c == as_expr(1):
                parts.append(xi)
            else:
                parts.append(f"({print_expr(c)})*{xi}")
    if not parts:
        body = "0"
    else:
        body = " + ".join(parts)
    if not s.exact:
        body += f" + O(xi^{s.floor - 1})"
    return body
