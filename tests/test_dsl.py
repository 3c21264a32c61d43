import random
from fractions import Fraction

import pytest

import jetcalc.poly as poly_module
from jetcalc import DslSyntaxError
from jetcalc.dsl import gen_name, parse, parse_series, print_expr, print_poly, print_series
from jetcalc.expr import JetExpr, as_expr, fn, ln_shift, par, t, u, x
from jetcalc.kawahara import catalog, verify_catalog
from jetcalc.poly import (
    KIND_FN,
    KIND_JET,
    KIND_PARAM,
    KIND_T,
    KIND_UNKNOWN,
    KIND_X,
    ONE as POLY_ONE,
    T,
    X,
    ZERO,
    Poly,
    fnsym,
    jet,
    param,
    unknown_t,
)
from jetcalc.series import PsdSeries


def test_parse_gke_rhs():
    got = parse("u_5x + b*u_xxx + f(u)*u_x")
    assert got == u(5) + par("b") * u(3) + fn("f") * u(1)


def test_parse_q3():
    got = parse("t*u_x + 1/alpha")
    assert got == t() * u(1) + 1 / par("alpha")


# (text, message, line, column) of the parser's refusals
PARSE_REFUSALS = [
    ("u_x + ", "expected a value", 1, 7),
    # the line and the column count from the last newline
    ("u +\n  * u", "expected a value", 2, 3),
    ("(u + 1", "expected ')'", 1, 7),
    ("u u", "unexpected trailing input", 1, 3),
    ("u^x", "expected an integer exponent", 1, 3),
    ("f(x)", "function symbols take the argument (u)", 1, 2),
    ("u'", "u takes no primes", 1, 1),
    ("ln u", "ln requires the argument (u+c)", 1, 4),
    ("alpha'", "primes are reserved for function symbols, got \"alpha'\"", 1, 1),
]


def test_parse_error_position():
    for text, message, line, column in PARSE_REFUSALS:
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column), text
        assert str(err.value) == f"{message} (line {line}, column {column})"


def test_parse_unknown_character():
    with pytest.raises(DslSyntaxError):
        parse("u ? 3")


def test_jet_spellings():
    assert parse("u_xx") == u(2)
    assert parse("u_2x") == u(2)
    assert parse("u_{2}x") == u(2)
    assert parse("u_xxxx") == u(4)
    assert parse("u_4x") == u(4)
    assert parse("u_12x") == u(12)


def test_function_symbol_spellings():
    assert parse("f(u)") == fn("f")
    assert parse("f") == fn("f")
    assert parse("f''(u)") == fn("f", 2)
    assert parse("df^5") == fn("f", 5)
    assert parse("rhat(u)") == fn("rhat")
    assert parse("r(u)") == fn("r")
    assert parse("ln(u+c)") == ln_shift()


def test_derivatives_of_r_and_rhat_fold_into_the_chain():
    assert parse("r'(u)") == fn("f")
    assert parse("rhat'(u)") == fn("r")
    assert parse("rhat''(u)") == fn("f")
    assert parse("rhat'''(u)") == fn("f", 1)


def test_chain_symbols_round_trip():
    for e in [fn("f", k) for k in range(7)] + [fn("r"), fn("rhat"), ln_shift()]:
        assert parse(repr(e)) == e


def test_ln_argument_checked():
    with pytest.raises(DslSyntaxError):
        parse("ln(u)")


def test_powers_and_fractions():
    assert parse("u^2/2") == u(0) ** 2 / 2
    assert parse("3/25*f'(u)") == 3 * fn("f", 1) / 25
    assert parse("(u + 1)^(-1)") == 1 / (u(0) + 1)
    assert parse("u^-2") == u(0) ** -2
    assert parse("-u_x^2") == -(u(1) ** 2)


@pytest.mark.parametrize("parse_text", [parse, parse_series])
def test_a_sum_is_accumulated_once(monkeypatch, parse_text):
    # n signed terms over two denominators: JetExpr.__add__ runs a bounded
    # number of times, not once per term, and the value is the folded sum
    n = 300
    terms = [f"{k}*b^{k}*u" if k % 3 else f"{k}*u_x/b^{k % 2 + 1}" for k in range(1, n + 1)]
    text = "u"
    for k, term in enumerate(terms):
        text += f" {'-' if k % 4 == 1 else '+'} {term}"
    folded = parse("u")
    for k, term in enumerate(terms):
        folded = folded - parse(term) if k % 4 == 1 else folded + parse(term)
    calls = []
    add = JetExpr.__add__

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(JetExpr, "__add__", counted)
    got = parse_text(text)
    assert len(calls) <= 4, len(calls)
    if parse_text is parse_series:
        got = got.coeff(0)
    assert got == folded


def test_xi_rejected_outside_series():
    with pytest.raises(DslSyntaxError):
        parse("xi^2 + u")


def test_parse_series():
    got = parse_series("xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x")
    assert got.coeff(5) == as_expr(1)
    assert got.coeff(3) == par("b")
    assert got.coeff(1) == fn("f")
    assert got.coeff(0) == fn("f", 1) * u(1)
    neg = parse_series("xi^(-1) + u*xi^-2")
    assert neg.coeff(-1) == as_expr(1)
    assert neg.coeff(-2) == u(0)
    # a divisor may hold a single power of xi
    assert parse_series("1/xi") == parse_series("xi^(-1)")
    assert parse_series("(xi^2 + xi)/xi") == parse_series("xi + 1")
    assert parse_series("(u*xi)^-1") == PsdSeries.from_coeffs({-1: 1 / u(0)})
    assert print_series(parse_series("(u*xi)^-1")) == "((1)/(u))*xi^(-1)"
    # a sum of xi powers is refused at the operator's token
    for text, column in (("1/(xi+u)", 2), ("(xi+1)^-1", 7)):
        with pytest.raises(DslSyntaxError) as err:
            parse_series(text)
        assert "cannot divide by a sum of xi powers" in str(err.value)
        assert (err.value.line, err.value.column) == (1, column)


def test_print_canonical_order():
    e = u(5) + par("b") * u(3) + fn("f") * u(1)
    assert print_expr(e) == "u_5x + b*u_xxx + f(u)*u_x"
    assert print_expr(u(1) ** 2 / 2) == "1/2*u_x^2"
    assert print_expr(-u(2)) == "-u_xx"
    assert print_expr(x() * u(0) + par("alpha") * t() * u(0) ** 2 / 2) \
        == "1/2*alpha*t*u^2 + x*u"


def test_print_ratio():
    e = (t() * u(1) * par("gamma") + u(0) + par("c")) / par("gamma")
    assert print_expr(e) == "(gamma*t*u_x + u + c)/(gamma)"


def test_print_parse_roundtrip_catalog():
    syms, dens = verify_catalog()
    exprs = [s.Q for s in syms] + [d.rho for d in dens] + \
        [d.flux for d in dens] + [d.characteristic for d in dens] + \
        [d.printed_flux for d in dens]
    for e in exprs:
        assert parse(print_expr(e)) == e
        assert repr(e) == print_expr(e)


def _random_coefficient(rng):
    """A random rational expression over the generators the parser spells."""
    atoms = [u(0), u(1), u(2), u(3), u(4), u(7), x(), t(), fn("f"), fn("f", 1),
             fn("f", 2), fn("f", 5), fn("r"), fn("rhat"), ln_shift(), par("b"),
             par("alpha"), par("c")]

    def poly():
        total = as_expr(0)
        for _ in range(rng.randint(1, 3)):
            term = as_expr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(atoms) ** rng.randint(1, 3)
            total = total + term
        return total
    num = poly()
    if rng.random() < 0.4:
        den = poly()
        if not den.is_zero:
            return num / den
    return num


def test_print_parse_roundtrip_series():
    S = PsdSeries.from_coeffs({5: as_expr(1), 3: par("b"), 1: fn("f"),
                               0: fn("f", 1) * u(1)})
    text = print_series(S)
    assert parse_series(text) == S
    assert repr(S) == text
    rng = random.Random(16)
    for _ in range(120):
        S = PsdSeries.from_coeffs({k: _random_coefficient(rng)
                                   for k in rng.sample(range(-4, 6), rng.randint(0, 4))})
        text = print_series(S)
        assert parse_series(text) == S, text
        assert repr(S) == text
    # an inexact series prints its window as a trailing + O(xi^k)
    for _ in range(60):
        terms = {k: _random_coefficient(rng) for k in rng.sample(range(-4, 6), rng.randint(0, 4))}
        S = PsdSeries.from_coeffs(terms, exact=False, bottom=rng.randint(-6, min(terms, default=6)))
        text = print_series(S)
        assert not S.exact and text.endswith(f" + O(xi^{S.floor - 1})")
        assert parse_series(text) == S, text


def test_a_trailing_window_is_the_floor_of_an_inexact_series():
    S = parse_series("xi^2 + (u)*xi^(-1) + O(xi^-3)")
    assert S == PsdSeries.from_coeffs({2: 1, -1: u(0)}, exact=False, bottom=-2)
    assert parse_series("xi^2 + (u)*xi^(-1) + O(xi^(-3))") == S
    assert print_series(S) == "xi^2 + (u)*xi^(-1) + O(xi^-3)"
    assert parse_series("0 + O(xi^3)") == PsdSeries.from_coeffs({}, exact=False, bottom=4)
    assert parse_series("xi + O(xi^0)").floor == 1
    # without a ( after it, O is still a parameter
    assert parse_series("O*xi") == PsdSeries.from_coeffs({1: par("O")})


@pytest.mark.parametrize("text, message, column", [
    ("xi + u + O(xi^0)", "a term below the window O(xi^0)", 8),
    ("xi + u +\n O(xi^(0))", "a term below the window O(xi^0)", 8),
    ("O(xi^2)", "unexpected trailing input", 2),
    ("xi - O(xi^-2)", "unexpected trailing input", 7),
    ("xi + 2*O(xi^-2)", "unexpected trailing input", 9),
    ("xi + (O(xi^-2))", "expected ')'", 8),
    ("xi + O(xi^-2) + u", "unexpected trailing input", 7),
    ("xi + O(xi^-2)^2", "unexpected trailing input", 7),
    ("xi + O(u^2)", "unexpected trailing input", 7),
])
def test_a_misplaced_window_is_a_syntax_error(text, message, column):
    # a window ends the series after a +; anywhere else O( does not parse
    with pytest.raises(DslSyntaxError) as err:
        parse_series(text)
    assert str(err.value) == f"{message} (line 1, column {column})"


# The printer as it stood before it cached per-generator print data and
# unpacked monomials itself: the oracle of the test below.
_ORACLE_PRINT_RANK = {KIND_JET: 0, KIND_FN: 1, KIND_UNKNOWN: 2, KIND_X: 3, KIND_T: 4,
                      KIND_PARAM: 5}
_ORACLE_FACTOR_RANK = {KIND_PARAM: 0, KIND_X: 1, KIND_T: 2, KIND_UNKNOWN: 3,
                       KIND_FN: 4, KIND_JET: 5}


def _oracle_dominance_key(mono: tuple):
    if not mono:
        return (1, ())
    parts = []
    for g, e in mono:
        if g.kind == KIND_JET:
            parts.append(((0, -g.index, "", 0), -e))
        else:
            parts.append(((1, _ORACLE_PRINT_RANK[g.kind], g.name, g.index), -e))
    parts.sort()
    return (0, tuple(parts))


def _oracle_print_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    terms = sorted(p.items(), key=lambda kv: _oracle_dominance_key(kv[0]))
    parts = []
    for idx, (mono, coeff) in enumerate(terms):
        factors = sorted(mono, key=lambda ge: (_ORACLE_FACTOR_RANK[ge[0].kind],
                                               ge[0].name, ge[0].index))
        body = "*".join(
            f"{gen_name(g)}^{e}" if e != 1 else gen_name(g)
            for g, e in factors)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if idx == 0:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(parts)


def test_print_poly_matches_the_oracle_printer():
    gens = [X, T, *(jet(i) for i in (0, 1, 2, 3, 4, 11)),
            *(fnsym("f", k) for k in (0, 1, 2, 3, 4, 7)), fnsym("r"), fnsym("rhat"),
            fnsym("lnuc"), *(unknown_t("h", k) for k in (0, 1, 2, 3)), unknown_t("a0"),
            param("b"), param("c"), param("gamma"), param("xi")]
    rng = random.Random(91)
    polys = [ZERO, POLY_ONE, Poly.const(Fraction(-7, 4)), *(Poly.gen(g) for g in gens)]
    while len(polys) < 400:
        p = ZERO
        for _ in range(rng.randint(1, 6)):
            term = Poly.const(Fraction(rng.choice((-12, -3, -1, 1, 2, 5, 18)),
                                       rng.choice((1, 1, 2, 3, 6, 35))))
            for g in rng.sample(gens, rng.randint(0, 4)):
                term = term * Poly.gen(g) ** rng.randint(1, 3)
            p = p + term
        polys.append(p)
    assert any(p.den > 1 for p in polys)
    for p in polys:
        assert print_poly(p) == _oracle_print_poly(p)


def test_print_poly_after_interning_between_prints():
    # a generator interned between two prints changes the printer's ranks of
    # the generators before it: each new one sorts between old ones
    old = [X, T, jet(0), jet(2), fnsym("f"), fnsym("f", 2), unknown_t("h"), unknown_t("h", 1),
           param("b"), param("gamma")]
    rng = random.Random(93)

    def draw(gens):
        p = ZERO
        for _ in range(rng.randint(1, 5)):
            term = Poly.const(rng.choice((-3, -1, 1, 2, Fraction(5, 6))))
            for g in rng.sample(gens, rng.randint(0, 4)):
                term = term * Poly.gen(g) ** rng.randint(1, 3)
            p = p + term
        return p

    before = [draw(old) for _ in range(60)]
    for p in before:
        assert print_poly(p) == _oracle_print_poly(p)
    fields = len(poly_module._FIELD_GENS)
    new = [param("c_interned_between_prints"), unknown_t("g_interned_between_prints", 1),
           fnsym("fa_interned_between_prints")]
    assert len(poly_module._FIELD_GENS) == fields + len(new)
    for p in before + [draw(old + new) for _ in range(60)]:
        assert print_poly(p) == _oracle_print_poly(p)
    # a field past the interned generators is an error, as for _unpack
    with pytest.raises(IndexError):
        print_poly(Poly({1 << poly_module.FIELD_BITS * len(poly_module._FIELD_GENS): 1}))


def test_whitespace_normalization():
    a = parse("u_5x   +  b *u_xxx+f(u)* u_x")
    bb = parse("u_5x + b*u_xxx + f(u)*u_x")
    assert a == bb


def test_nesting_depth_limit():
    from jetcalc.dsl import MAX_DEPTH

    d = MAX_DEPTH
    assert parse("(" * d + "u" + ")" * d) == u(0)
    assert parse("-" * d + "u") == u(0)
    assert parse("f(" + "(" * (d - 1) + "u" + ")" * d) == fn("f")
    assert parse_series("xi^" + "(" * d + "2" + ")" * d) == parse_series("xi^2")
    # the error points at the opening token one level too deep
    for text, column in (("(" * (d + 1) + "u" + ")" * (d + 1), d + 1),
                         ("-" * (d + 1) + "u", d + 1),
                         ("u^" + "(" * (d + 1) + "2" + ")" * (d + 1), d + 3)):
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
        assert "nesting deeper than" in str(err.value)
        assert (err.value.line, err.value.column) == (1, column)
