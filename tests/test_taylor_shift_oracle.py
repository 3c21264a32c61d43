"""Differential test of ``poly.taylor_shift`` and ``poly.horner`` against sympy.

Seeded random polynomials over Q in u, u_x, x, b, c, ln(u+c) and f(u) are
shifted in u by the parameter c, by -c and by rationals, and compared with
``sympy.Poly.shift`` on the same polynomial as a univariate polynomial in u
over ZZ[c, ...] (QQ[c, ...] for a rational shift or rational coefficients).
The canonical form is checked by structural equality with a Poly rebuilt
one term at a time from sympy's answer.  ``horner`` with a constant-in-u
value is checked against substitution.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from jetcalc.poly import ZERO, Poly, X, fnsym, horner, jet, param, taylor_shift  # noqa: E402
from test_poly import _assert_canonical  # noqa: E402

U = jet(0)
GENS = (U, jet(1), X, param("b"), param("c"), fnsym("lnuc", 0), fnsym("f", 0))
SYMS = sympy.symbols("u u1 x b c L f")
SYM = dict(zip(GENS, SYMS))
U_SYM, C_SYM = SYM[U], SYM[param("c")]
OTHERS = [s for s in SYMS if s is not U_SYM]


def _to_sympy(p: Poly):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(SYM[g] ** e for g, e in mono))
                       for mono, c in p.items()))


def _from_sympy(expr) -> Poly:
    total = ZERO
    for exps, c in sympy.Poly(expr, *SYMS).terms():
        term = Poly.const(Fraction(int(c.p), int(c.q)))
        for g, e in zip(GENS, exps):
            if e:
                term = term * Poly.gen(g) ** e
        total = total + term
    return total


def _random_poly(rng: random.Random, max_terms=6, max_exp=4) -> Poly:
    total = ZERO
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.const(Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 1, 1, 2, 3))))
        for _ in range(rng.randint(0, 3)):
            term = term * Poly.gen(rng.choice(GENS)) ** rng.randint(1, max_exp)
        total = total + term
    return total


SHIFTS = {
    "c": Poly.gen(param("c")),
    "-c": -Poly.gen(param("c")),
    "2/3": Poly.const(Fraction(2, 3)),
    "-5": Poly.const(-5),
}


@pytest.mark.parametrize("shift", sorted(SHIFTS))
def test_taylor_shift_matches_sympy(shift):
    a = SHIFTS[shift]
    rng = random.Random(1201 + sorted(SHIFTS).index(shift))
    for case in range(150):
        p = _random_poly(rng)
        got = taylor_shift(p, U, a)
        _assert_canonical(got)
        domain = sympy.QQ[tuple(OTHERS)]
        ref = sympy.Poly(_to_sympy(p), U_SYM, domain=domain).shift(_to_sympy(a)).as_expr()
        assert got == _from_sympy(ref), (case, p)
        # the shift by -a undoes it
        assert taylor_shift(got, U, -a) == p, (case, p)


def test_taylor_shift_over_zz_by_the_parameter():
    # integer coefficients stay integral: the shift runs over ZZ[c, ...]
    rng = random.Random(1210)
    domain = sympy.ZZ[tuple(OTHERS)]
    for case in range(100):
        p = _random_poly(rng)
        p = p.scale(p.den) if p.terms else p
        got = taylor_shift(p, U, SHIFTS["c"])
        assert got.den == 1
        ref = sympy.Poly(_to_sympy(p), U_SYM, domain=domain).shift(C_SYM).as_expr()
        assert got == _from_sympy(ref), (case, p)


def test_horner_substitutes_a_value_free_of_the_variable():
    rng = random.Random(1211)
    for case in range(100):
        p = _random_poly(rng)
        a = rng.choice((Poly.gen(param("c")), Poly.gen(param("b")) + Poly.const(Fraction(1, 2)),
                        Poly.const(3)))
        got = horner(p, U, a)
        _assert_canonical(got)
        ref = sympy.expand(_to_sympy(p).subs(U_SYM, _to_sympy(a)))
        assert got == _from_sympy(ref), (case, p, a)
