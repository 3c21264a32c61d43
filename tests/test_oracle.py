"""Differential test of the derivation layer against sympy.

Seeded random rational JetExprs over x, u..u_xxx, b, c, ln(u+c) and f(u)
are converted to elements of sympy's sparse rational-function field by
walking ``Poly.items`` (never through the DSL).  D_x, the partial
derivatives in the jets, d/du and the Euler operator are recomputed there
with sympy's own differentiation and compared exactly, by
cross-multiplication; formal x-integration is checked by recomputing
D_x(zeta) + residual there, and against a reference copy of the strip
without its one-pass kernels.  The identities the obstruction scan's step
relies on (Euler test on the integration residual, vanishing the scan
unknowns, the commutator without its cancelling products) are checked
within the engine on the same seeded inputs.
"""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

sympy = pytest.importorskip("sympy")

import jetcalc.calculus as calculus  # noqa: E402
from jetcalc.analysis import vanish  # noqa: E402
from jetcalc.calculus import euler, formal_x_integrate, total_x  # noqa: E402
from jetcalc.dsl import parse_series  # noqa: E402
from jetcalc.expr import (  # noqa: E402
    ZERO_EXPR,
    JetExpr,
    derive,
    fn,
    partial,
    partial_u_total,
    to_w,
    u,
    u_image,
)
from jetcalc.poly import (  # noqa: E402
    ONE,
    X,
    Poly,
    PolySum,
    _to_univariate,
    fnsym,
    jet,
    monomial,
    param,
    unknown_t,
)
from jetcalc.series import PsdSeries, commutator, compose  # noqa: E402

CASES = 200
LN = fnsym("lnuc", 0)
POINT_GENS = (X, jet(0), param("b"), param("c"), LN, fnsym("f", 0))
JET_GENS = POINT_GENS + (jet(1), jet(2), jet(3))
EULER_GENS = POINT_GENS + (jet(1), jet(2))

# Q(x, b, c, L, u0..u4, f0..f3, r, rhat) with L = ln(u+c), u4 = D_x(u3),
# fk = f^(k), and r, rhat the antiderivatives of f in u
K, XS, B, C, L, *rest = sympy.field("x,b,c,L,u0:5,f0:4,r,rhat", sympy.QQ)
U, F, (R, RHAT) = rest[:5], rest[5:9], rest[9:]
INDEX = {X: 0, param("b"): 1, param("c"): 2, LN: 3,
         **{jet(i): 4 + i for i in range(5)},
         **{fnsym("f", k): 9 + k for k in range(4)},
         fnsym("r", 0): 13, fnsym("rhat", 0): 14}


def _to_ring(p: Poly):
    terms = {}
    for m, c in p.items():
        exps = [0] * K.ring.ngens
        for g, e in m:
            exps[INDEX[g]] = e
        terms[tuple(exps)] = sympy.QQ(c.numerator, c.denominator)
    return K.ring.from_dict(terms)


def _to_sympy(e: JetExpr):
    # the engine's pair is already coprime; raw_new skips sympy's cancel
    return K.raw_new(_to_ring(e.num), _to_ring(e.den))


def _same(a, b) -> bool:
    return a.numer * b.denom == b.numer * a.denom


def _random_poly(rng: random.Random, gens, max_terms: int) -> Poly:
    total = Poly()
    for _ in range(rng.randint(1, max_terms)):
        term = Poly.const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
        for _ in range(rng.randint(0, 2)):
            term = term * Poly.gen(rng.choice(gens)) ** rng.randint(1, 2)
        total = total + term
    return total


def _random_expr(rng: random.Random, gens, den_gens=None) -> JetExpr:
    den_gens = den_gens or gens
    num = _random_poly(rng, gens, 3)
    den = ONE if rng.random() < 0.25 else _random_poly(rng, den_gens, 2)
    while den.is_zero() or num.is_zero():
        num, den = _random_poly(rng, gens, 3), _random_poly(rng, den_gens, 2)
    return JetExpr(num, ONE) / JetExpr(den, ONE)


UC = U[0] + C


def _derive(s, images):
    """sum(ds/dv * image) over the (v, image) pairs.  sympy's own partials
    are summed over the common denominator denom(s)^2 * (u+c) by exact
    division, so no further cancellation runs."""
    common = s.denom ** 2 * UC.numer
    total = K.ring.zero
    for v, img in images:
        if s.numer.degree(v.numer) <= 0 and s.denom.degree(v.numer) <= 0:
            continue
        d = s.diff(v)
        total += d.numer * img.numer * common.exquo(d.denom * img.denom)
    return K.raw_new(total, common)


# d/du with the chain rule ln(u+c) -> 1/(u+c), rhat -> r -> f, f^(k) -> f^(k+1)
DU = ([(U[0], K.one), (L, 1 / UC), (RHAT, R), (R, F[0])]
      + [(F[k], F[k + 1]) for k in range(len(F) - 1)])
DX = ([(XS, K.one)] + [(v, U[1] * img) for v, img in DU]
      + [(U[i], U[i + 1]) for i in range(1, len(U) - 1)])


def test_total_x_and_jet_partials_match_sympy():
    rng = random.Random(401)
    for case in range(CASES):
        e = _random_expr(rng, JET_GENS)
        s = _to_sympy(e)
        assert _same(_to_sympy(total_x(e)), _derive(s, DX)), (case, e)
        k = rng.randint(0, 3)
        assert _same(_to_sympy(partial(e, jet(k))), s.diff(U[k])), (case, e, k)


def test_partial_u_total_matches_sympy():
    rng = random.Random(402)
    for case in range(CASES):
        e = _random_expr(rng, POINT_GENS)
        assert _same(_to_sympy(partial_u_total(e)), _derive(_to_sympy(e), DU)), (case, e)


def test_euler_matches_sympy():
    # E(F) = c0 - D_x(c1) + D_x^2(c2), c_i = dF/du_i (c0 with the d/du chain);
    # denominators stay point functions: a jet in them makes sympy's
    # cancellation in D_x^2 about a second per case
    rng = random.Random(403)
    for case in range(40):
        e = _random_expr(rng, EULER_GENS, POINT_GENS)
        s = _to_sympy(e)
        ref = (_derive(s, DU) - _derive(s.diff(U[1]), DX)
               + _derive(_derive(s.diff(U[2]), DX), DX))
        assert _same(_to_sympy(euler(e)), ref), (case, e)


def test_formal_x_integrate_matches_sympy():
    # F = D_x(zeta) + residual, with D_x(zeta) recomputed by sympy: first the
    # f -> r -> rhat chain, then seeded cases, half of them total derivatives
    # D_x(G) and half random
    f_ux = fn("f") * u(1)
    integrands = [f_ux, u(0) * f_ux, JetExpr.from_gen(X) * f_ux]
    rng = random.Random(404)
    for case in range(120):
        e = _random_expr(rng, EULER_GENS, POINT_GENS)
        integrands.append(total_x(e) if case % 2 else e)
    # then D_x(G) inside the integrator's class, which must leave no residual:
    # G = sum a_q (u+c)^q ln(u+c)^p with a_q in Q[b, c], so that powers
    # (u+c)^k with k >= 2 and the by-parts path, which the random
    # denominators above never aim at, are taken
    uc = u(0) + JetExpr.from_gen(param("c"))
    ln = JetExpr.from_gen(LN)
    exact = []
    rng = random.Random(405)
    for _ in range(60):
        G = JetExpr.sum(JetExpr(_random_poly(rng, (param("b"), param("c")), 2), ONE)
                        * uc ** rng.randint(-3, 3) * ln ** rng.randint(0, 2)
                        for _ in range(rng.randint(1, 3)))
        exact.append(total_x(G))
    for case, integrand in enumerate(integrands + exact):
        zeta, residual = formal_x_integrate(integrand)
        got = _derive(_to_sympy(zeta), DX) + _to_sympy(residual)
        assert _same(got, _to_sympy(integrand)), (case, integrand)
        assert case < len(integrands) or residual.is_zero, (case, integrand, residual)


# -- identities the scan's step relies on --------------------------------------
# Engine-only identities, checked by exact equality of canonical JetExprs on the
# same seeded inputs.  The scan unknowns enter numerators only, as in the scan.

UNKNOWNS = (unknown_t("g"), unknown_t("g", 1), unknown_t("l1"), unknown_t("l1", 2))


def _scan_integrands(seed: int, count: int):
    """Random F over jets, point generators and scan unknowns, in turn a
    random expression, a total derivative and a total derivative plus a
    random expression, so that most leave a residual."""
    rng = random.Random(seed)
    for case in range(count):
        F = _random_expr(rng, EULER_GENS + UNKNOWNS, POINT_GENS)
        if case % 3:
            F = total_x(F)
        if case % 3 == 2:
            F = F + _random_expr(rng, EULER_GENS + UNKNOWNS, POINT_GENS)
        yield F


def _random_forcings(rng: random.Random) -> dict:
    return {name: rng.randint(0, 2) for name in rng.sample(("g", "l1"), rng.randint(1, 2))}


def test_residual_carries_the_variational_derivative():
    # F = D_x(zeta) + res, so euler(F) = euler(res), residual or not
    nonzero = 0
    for case, F in enumerate(_scan_integrands(406, 60)):
        zeta, res = formal_x_integrate(F)
        assert F == total_x(zeta) + res, (case, F)
        assert euler(F) == euler(res), (case, F)
        nonzero += not res.is_zero
    assert nonzero > 10


# The strip as it stood before its one-pass kernels: the degree read off the
# exponents, the slope and the powers of an antiderivative by _to_univariate,
# D(C) subtracted as an expression of its own and zeta summed step by step.


def _degree(p, g):
    """The degree of p in g, the largest exponent of g in its terms."""
    return max((dict(mono).get(g, 0) for mono, _ in p.items()), default=0)


def _strip_reference(F, image, piece):
    zeta, rem = ZERO_EXPR, F
    while not rem.is_zero:
        C = piece(rem)
        if C is None:
            break
        zeta = zeta + C
        rem = rem - derive(C, image)
    return zeta, rem


def _affine_piece_reference(rem, H, pred, shifted):
    if H in rem.den.generators() or _degree(rem.num, H) != 1:
        return None
    slope = JetExpr._reduce(_to_univariate(rem.num, H)[1], rem.den)
    if pred is not jet(0):
        return calculus._integrate_in(slope, pred)
    zeta, left = calculus._strip(slope, u_image, lambda r: calculus._u_piece(r, shifted))
    return zeta if left.is_zero else None


def _integrate_in_reference(e, g):
    if g in e.den.generators():
        return None
    acc = PolySum()
    for k, a in enumerate(_to_univariate(e.num, g), 1):
        if a.terms:
            acc.add(a * Poly({monomial(((g, k),)): 1}), 1, k)
    return JetExpr(acc.value(), e.den)


def test_strip_matches_the_reference_strip(monkeypatch):
    # F = D_x(zeta) + res exactly, in u and in w = u + c, and (zeta, res) is
    # the pair of the reference strip
    stripped = polynomial = 0
    for case, F in enumerate(_scan_integrands(410, 90)):
        for shifted in (False, True):
            G = to_w(F) if shifted else F
            zeta, res = formal_x_integrate(G, shifted)
            assert G == total_x(zeta) + res, (case, shifted, G)
            with monkeypatch.context() as m:
                m.setattr(calculus, "_strip", _strip_reference)
                m.setattr(calculus, "_affine_piece", _affine_piece_reference)
                m.setattr(calculus, "_integrate_in", _integrate_in_reference)
                want = formal_x_integrate(G, shifted)
            assert (zeta, res) == want, (case, shifted, G)
            stripped += not zeta.is_zero
            polynomial += G.den == ONE and not zeta.is_zero
    assert stripped > 60 and polynomial > 30, (stripped, polynomial)


def test_vanishing_commutes_with_d_x_and_the_resumed_strip():
    # the unknowns are x-constants, so vanish commutes with D_x; stripping
    # resumed from the vanished residual integrates the vanished F
    rng = random.Random(407)
    dropped = 0
    for case, F in enumerate(_scan_integrands(408, 60)):
        z = _random_forcings(rng)
        assert vanish(total_x(F), z) == total_x(vanish(F, z)), (case, F, z)
        zeta, res = formal_x_integrate(F)
        more, rest = formal_x_integrate(vanish(res, z))
        assert vanish(F, z) == total_x(vanish(zeta, z) + more) + rest, (case, F, z)
        assert euler(vanish(F, z)) == euler(rest), (case, F, z)
        dropped += vanish(F, z) != F
    assert dropped > 10


def _inexact_series(rng: random.Random) -> PsdSeries:
    """A series with negative indices and a floor, its coefficients in jets."""
    top = rng.randint(-1, 3)
    coeffs = {i: _random_expr(rng, (jet(0), jet(1), param("b")), (param("b"), param("c")))
              for i in range(top, top - 3, -1) if i == top or rng.random() < 0.7}
    return PsdSeries.from_coeffs(coeffs, exact=rng.random() < 0.3, bottom=top - 2)


def _binom(i: int, k: int) -> Fraction:
    """i(i-1)...(i-k+1)/k!, as the falling product it is defined by."""
    return Fraction(prod(i - j for j in range(k)), factorial(k))


def _dx_power(b, k: int):
    for _ in range(k):
        b = total_x(b)
    return b


def _product_reference(A: PsdSeries, B: PsdSeries, m: int):
    """The xi^m coefficient of A o B, one Leibniz product at a time."""
    total = ZERO_EXPR
    for i, a in A.terms.items():
        for j, b in B.terms.items():
            k = i + j - m
            if k >= 0:
                total = total + a * _binom(i, k) * _dx_power(b, k)
    return total


def _leaves_window(A: PsdSeries, B: PsdSeries, floor: int) -> bool:
    """True when some product a_i C(i,k) D_x^k(b_j) of A o B with k >= 1 is
    nonzero and sits below xi^floor.  C(i,k) vanishes for 0 <= i < k, and
    D_x^k(b) = 0 ends b's tower, so a few k past the first one decide."""
    for i in A.terms:
        for j, b in B.terms.items():
            first = max(1, i + j - floor + 1)
            for k in range(first, first + 4):
                if _binom(i, k) and not _dx_power(b, k).is_zero:
                    return True
    return False


def test_commutator_drops_only_the_cancelling_products():
    # on its window the commutator has the coefficients of A o B - B o A, and
    # it is inexact exactly when an operand is or when a product with k >= 1
    # leaves the window: the k = 0 products a_i b_j cancel between the sides
    rng = random.Random(409)
    outcomes = {True: 0, False: 0}
    for case in range(60):
        if case % 2:
            A, B = _inexact_series(rng), _inexact_series(rng)
        else:
            # exact operands at indices >= 0, some free of jets, so that the
            # products below the window can all vanish
            A, B = (PsdSeries.from_coeffs(
                {i: _random_expr(rng, rng.choice(((jet(0), jet(1)), (param("b"), param("c")))))
                 for i in range(top, top - 3, -1) if i == top or rng.random() < 0.6})
                for top in (rng.randint(1, 3), rng.randint(1, 3)))
        slots = rng.randint(2, 6)
        got = commutator(A, B, slots)
        # the window of A o B: slots below the top, and no lower than the
        # floor of an inexact operand allows
        top = A.degree() + B.degree()
        window = max([top - slots + 1] + [s.floor + t.degree()
                                          for s, t in ((A, B), (B, A)) if not s.exact])
        for m in range(top, window - 1, -1):
            want = _product_reference(A, B, m) - _product_reference(B, A, m)
            assert got.coeff(m) == want, (case, m, A, B)
        inexact = (not A.exact or not B.exact or _leaves_window(A, B, window)
                   or _leaves_window(B, A, window))
        assert got.exact is not inexact, (case, A, B, slots)
        if inexact:
            assert got.floor == window, (case, A, B, slots)
        else:
            # nothing below the window: every lower coefficient is zero
            for m in range(window - 1, window - 4, -1):
                assert (_product_reference(A, B, m) - _product_reference(B, A, m)).is_zero
        outcomes[inexact] += 1
    assert min(outcomes.values()) > 5, outcomes
    # every product below the 3-slot window has k = 0, so the zero is exact
    # although compose - compose is not
    A, B = parse_series("xi^2 + u*xi^(-5)"), parse_series("b")
    assert commutator(A, B, 3) == PsdSeries.zero()
    assert not (compose(A, B, 3) - compose(B, A, 3)).exact