import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from jetcalc import NEG_INF, RootNotInClass
from jetcalc.calculus import frechet_hat, total_x
from jetcalc.expr import JetExpr, as_expr, fn, par, partial, u, x
from jetcalc.poly import jet
from jetcalc.series import (
    PsdSeries,
    adjoint,
    binom_falling,
    commutator,
    compose,
    dt_series,
    nth_root,
    series_power,
)

from conftest import agrees, random_expr


xi = PsdSeries.xi


def dk_abstract():
    return frechet_hat(u(5) + par("b") * u(3) + fn("f") * u(1))


def rand_series(rng, top_range=(-2, 3), slots=4, term_pool=None):
    if term_pool is None:
        term_pool = [as_expr(1), as_expr(2), u(0), u(1), par("b"), u(0) * par("b")]
    top = rng.randint(*top_range)
    coeffs = {}
    for i in range(top, top - slots, -1):
        if rng.random() < 0.7:
            coeffs[i] = rng.choice(term_pool)
    if top not in coeffs:
        coeffs[top] = rng.choice(term_pool)
    return PsdSeries.from_coeffs(coeffs, exact=False, bottom=top - slots + 1)


def test_binom_falling():
    assert binom_falling(5, 2) == 10
    assert binom_falling(5, 6) == 0
    assert binom_falling(-1, 3) == -1
    assert binom_falling(-2, 2) == 3


def test_binom_falling_is_an_exact_int():
    # C(i,k) is an integer for every integer i: comb(i, k) for i >= 0, and
    # (-1)^k C(k-i-1, k) for i < 0, both the falling product over k!
    for i in range(-30, 31):
        for k in range(12):
            c = binom_falling(i, k)
            assert type(c) is int, (i, k)
            assert c == Fraction(prod(i - j for j in range(k)), factorial(k)), (i, k)
            if i >= 0:
                assert c == comb(i, k), (i, k)
            else:
                assert c == (-1) ** k * comb(k - i - 1, k), (i, k)


def test_compose_leibniz():
    got = compose(xi(1), PsdSeries.const(u(0)))
    assert got.coeff(1) == u(0) and got.coeff(0) == u(1)
    assert got.exact


def test_compose_negative_power_tail():
    got = compose(xi(-1), PsdSeries.const(u(0)), slots=4)
    # alternating-sign derivative tail of the generalized Leibniz rule
    assert got.coeff(-1) == u(0)
    assert got.coeff(-2) == -u(1)
    assert got.coeff(-3) == u(2)
    assert got.coeff(-4) == -u(3)
    assert not got.exact


def test_exact_product_ending_on_the_window_floor_stays_exact():
    # the last Leibniz term sits on the floor; C(i,k) = 0 below it
    got = compose(PsdSeries.const(u(0)), PsdSeries.const(u(0)), slots=1)
    assert got == PsdSeries.const(u(0) ** 2) and got.exact
    got = adjoint(xi(1) + PsdSeries.const(u(0)), slots=2)
    assert got == PsdSeries.const(u(0)) - xi(1) and got.exact
    got = commutator(xi(5), PsdSeries.monomial(u(0), 1), slots=6)
    assert got.exact and got.degree() == 5 and got.coeff(1) == u(5)


def test_commutator_tail_counts_only_the_products_that_survive():
    # below the window of 3 slots sit only the k = 0 products u*b, which
    # cancel: the commutator is exactly zero, while A o B is cut there
    A = xi(2) + PsdSeries.monomial(u(0), -5)
    B = PsdSeries.const(par("b"))
    got = commutator(A, B, slots=3)
    assert got == PsdSeries.zero() and got.exact
    assert not compose(A, B, slots=3).exact
    # a k = 1 product below the window keeps the commutator inexact
    got = commutator(A, PsdSeries.const(u(0)), slots=3)
    assert not got.exact and got.floor == 0


# A brute-force reference for the product windows, sharing no code with
# series: every (i, j, k) term summed per xi-index, with D_x^k and C(i,k) formed
# from their definitions, and the window taken by definition.

def _ref_window(products, top: int, bounds: list, slots: int, exact: bool) -> PsdSeries:
    """The sum of sign * S o T over the (S, T, sign) products on xi^top down to
    ``slots`` indices and no lower than a bound, exact when the operands are
    and the sum is zero at every index below the window.  A term with i >= 0
    sits at or above xi^j, and one with i < 0 at each index from xi^(i+j)
    down: below the lowest of these, four more indices are checked."""
    towers = {}

    def dx(b, k):
        tower = towers.setdefault(b, [b])
        while len(tower) <= k:
            tower.append(total_x(tower[-1]))
        return tower[k]

    floor = max([top - slots + 1, *bounds])
    lowest = min([floor, *(min(i + j, j) for S, T, _ in products
                           for i, _ in S.items() for j, _ in T.items())]) - 4
    window = {}
    for m in range(top, lowest - 1, -1):
        c = as_expr(0)
        for S, T, sign in products:
            for i, a in S.items():
                for j, b in T.items():
                    k = i + j - m
                    if k >= 0:
                        c = c + sign * Fraction(prod(i - r for r in range(k)), factorial(k)) \
                            * a * dx(b, k)
        if m >= floor:
            window[m] = c
        elif not c.is_zero:
            exact = False
    return PsdSeries.from_coeffs(window, exact, floor)


def _ref_bilinear(A, B, slots, products):
    if not A.terms or not B.terms:
        # zero on the window that the leads fix: a degree, else a floor, else 0
        if A.exact and B.exact:
            return PsdSeries.zero()
        return PsdSeries({}, sum(max(S.terms, default=S.floor or 0) for S in (A, B)))
    bounds = [S.floor + T.degree() for S, T in ((A, B), (B, A)) if not S.exact]
    return _ref_window(products, A.degree() + B.degree(), bounds, slots,
                       A.exact and B.exact)


def _ref_adjoint(A, slots):
    # (-xi)^i o a_i for each coefficient; A's unknown tail reaches only below
    # its floor
    products = [({i: as_expr(-1 if i % 2 else 1)}, {0: a}, 1) for i, a in A.terms.items()]
    top = max(A.terms, default=A.floor or 0)
    return _ref_window(products, top, [] if A.exact else [A.floor], slots, A.exact)


def _window_series(rng):
    """A seeded series: indices from 3 down to -8, exact or not, maybe empty."""
    pool = [as_expr(1), as_expr(Fraction(-2, 3)), u(0), u(1), par("b"), x(), x() * u(0)]
    top = rng.randint(-3, 3)
    coeffs = {i: rng.choice(pool) for i in range(top, top - 5, -1) if rng.random() < 0.5}
    if rng.random() < 0.1:
        coeffs = {}
    if rng.random() < 0.5:
        return PsdSeries.from_coeffs(coeffs)
    return PsdSeries.from_coeffs(coeffs, exact=False,
                                 bottom=min(coeffs, default=top) - rng.randint(0, 3))


def test_products_match_a_brute_force_window_reference():
    rng = random.Random(89)
    empty = [PsdSeries.zero(), PsdSeries({}, -2)]
    cases = [(xi(2) + PsdSeries.monomial(u(0), -5), PsdSeries.const(par("b")), 3)]
    cases += [(_window_series(rng), _window_series(rng), rng.randint(1, 8)) for _ in range(150)]
    cases += [(E, _window_series(rng), slots) for E in empty for slots in (1, 8)]
    cases += [(_window_series(rng), E, slots) for E in empty for slots in (1, 8)]
    kinds = set()
    for A, B, slots in cases:
        kinds.add((A.exact, B.exact, not A.terms or not B.terms))
        assert compose(A, B, slots) == _ref_bilinear(A, B, slots, ((A, B, 1),)), (A, B, slots)
        assert commutator(A, B, slots) == _ref_bilinear(A, B, slots, ((A, B, 1), (B, A, -1))), \
            (A, B, slots)
        assert adjoint(A, slots) == _ref_adjoint(A, slots), (A, slots)
    # the draw covers every pairing of exact and inexact operands, with and
    # without an empty one, negative indices and every window of 1 to 8 slots
    assert len(kinds) == 8
    assert any(min(A.terms, default=0) < 0 for A, _, _ in cases)
    assert {slots for _, _, slots in cases} == set(range(1, 9))


def test_compose_matches_operator_application_randomized():
    # A o B as differential operators: xi^k acts as D_x^k, so A(B(u_12)) holds
    # the xi^k coefficient of A o B on u_(12+k); built with total_x alone
    rng = random.Random(47)
    pool = [u(i) for i in range(4)] + [par("b")]

    def rand_operator():
        return {k: random_expr(rng, pool=pool, max_terms=2)
                for k in range(4) if rng.random() < 0.7}

    def apply(op, phi):
        total, d = as_expr(0), phi
        for k in range(4):
            if k in op:
                total = total + op[k] * d
            d = total_x(d)
        return total

    for _ in range(25):
        a, b = rand_operator(), rand_operator()
        got = compose(PsdSeries.from_coeffs(a), PsdSeries.from_coeffs(b))
        applied = apply(a, apply(b, u(12)))
        assert got.exact
        for k in range(7):
            assert got.coeff(k) == partial(applied, jet(12 + k)), k
        assert (applied - sum((got.coeff(k) * u(12 + k) for k in range(7)),
                              as_expr(0))).is_zero


def test_compose_inverse_powers():
    got = compose(xi(5), xi(-5))
    assert got == PsdSeries.const(1)
    assert got.exact


def test_commutator_examples():
    assert commutator(xi(1), PsdSeries.const(u(0))) == PsdSeries.const(u(1))
    assert commutator(xi(5), xi(3)).is_zero_on_window()
    # [hat D_K, xi] = -(D_x of the coefficients), expanded directly
    from jetcalc.calculus import total_x
    dk = dk_abstract()
    got = commutator(dk, xi(1), slots=8)
    expect = PsdSeries.from_coeffs({
        1: -total_x(fn("f")),
        0: -total_x(fn("f", 1) * u(1)),
    }, exact=True)
    assert agrees(got, expect)
    assert got.degree() == 1


def test_degree_examples():
    assert PsdSeries.from_coeffs({3: as_expr(1), 1: u(0)}).degree() == 3
    assert PsdSeries.zero().degree() is NEG_INF
    assert commutator(xi(1), xi(1)).degree() is NEG_INF


def test_degree_drop_constant_leads():
    A = PsdSeries.from_coeffs({2: as_expr(1), 0: u(0)})
    B = PsdSeries.from_coeffs({3: as_expr(2), 1: u(1)})
    assert commutator(A, B, slots=8).degree() <= 2 + 3 - 1


def test_adjoint_examples():
    got = adjoint(PsdSeries.monomial(u(0), 1))
    assert got.coeff(1) == -u(0) and got.coeff(0) == -u(1)
    assert adjoint(xi(2)) == xi(2)


def test_adjoint_involution_randomized():
    rng = random.Random(17)
    for _ in range(100):
        A = rand_series(rng)
        assert agrees(adjoint(adjoint(A)), A)


def test_adjoint_antihomomorphism_randomized():
    rng = random.Random(19)
    for _ in range(100):
        A = rand_series(rng)
        B = rand_series(rng)
        lhs = adjoint(compose(A, B))
        rhs = compose(adjoint(B), adjoint(A))
        assert agrees(lhs, rhs)


def test_compose_associativity_randomized():
    rng = random.Random(29)
    for _ in range(100):
        A, B, C = (rand_series(rng) for _ in range(3))
        assert agrees(compose(compose(A, B), C), compose(A, compose(B, C)))


def test_degree_additivity():
    rng = random.Random(37)
    for _ in range(60):
        A = rand_series(rng)
        B = rand_series(rng)
        assert compose(A, B).degree() == A.degree() + B.degree()


def test_nth_root_xi5():
    R = nth_root(xi(5), 5, slots=6)
    assert R.coeff(1) == as_expr(1)
    assert all(R.coeff(i).is_zero for i in range(0, R.floor - 1, -1))


def test_nth_root_square():
    A = compose(xi(1) + PsdSeries.const(u(0)), xi(1) + PsdSeries.const(u(0)))
    assert A.coeff(2) == as_expr(1)
    assert A.coeff(1) == 2 * u(0)
    assert A.coeff(0) == u(0) ** 2 + u(1)
    R = nth_root(A, 2, slots=6)
    assert R.coeff(1) == as_expr(1)
    assert R.coeff(0) == u(0)
    assert agrees(series_power(R, 2, slots=6), A)


def test_nth_root_of_linearization_symbol():
    dk = dk_abstract()
    R = nth_root(dk, 5, slots=8)
    b, f = par("b"), fn("f")
    assert R.coeff(1) == as_expr(1)
    assert R.coeff(0).is_zero
    assert R.coeff(-1) == b / 5
    assert R.coeff(-2).is_zero
    # the xi^-3 slot carries f/5 plus the b^2 correction from the ansatz
    assert R.coeff(-3) == f / 5 - 2 * b ** 2 / 25
    assert agrees(series_power(R, 5, slots=8), dk)


def test_nth_root_requires_rational_root():
    with pytest.raises(RootNotInClass):
        nth_root(PsdSeries.monomial(as_expr(2), 2), 2)
    R = nth_root(PsdSeries.monomial(as_expr(4), 2), 2, slots=3)
    assert R.coeff(1) == as_expr(2)
    with pytest.raises(RootNotInClass):
        nth_root(PsdSeries.from_coeffs({2: u(0)}), 2)


def test_nth_root_roundtrip_randomized_degrees():
    rng = random.Random(41)
    pool = [as_expr(1), u(0), u(1), par("b")]
    # (n, leading coefficient): n = 1, monic leads, and leads whose root is
    # not 1, which the solve divides by
    for n, lead in ((1, 1), (2, 1), (3, 1), (5, 1), (2, 4), (3, -8), (5, 32)):
        for _ in range(30):
            coeffs = {n: as_expr(lead)}
            for i in range(n - 1, n - 4, -1):
                if rng.random() < 0.8:
                    coeffs[i] = rng.choice(pool)
            A = PsdSeries.from_coeffs(coeffs, exact=True)
            R = nth_root(A, n, slots=5)
            assert agrees(series_power(R, n, slots=5), A)
    # an inexact input: a truncated product
    B = xi(1) + PsdSeries.monomial(u(0), -1)
    A = compose(B, B, slots=6)
    assert not A.exact
    R = nth_root(A, 2)
    assert R.floor == A.floor - 1
    assert agrees(series_power(R, 2, slots=6), A)


def test_nth_root_builds_each_leibniz_sum_once(monkeypatch):
    # At step s the xi^(k-s) coefficient of R^k takes, from each a_i of
    # R^(k-1), the Leibniz sum over the r_j of R with j >= (k-s) - i; R is
    # known from 1 down to 2 - s, so the sum is fixed by (i, m = k - s) and its
    # lowest j.  Polynomial coefficients, so D_x builds no sums, and every
    # JetExpr.combination call is an inner sum or a coefficient's outer sum.
    n, slots = 5, 12
    A = dk_abstract()
    sums = set()
    for s in range(1, slots):
        for k in range(2, n + 1):
            m = k - s
            # R^(k-1) is known from xi^(k-1) down: to xi^(k-1-s) once this
            # step has reached it, to xi^(2-s) for R itself
            low = 2 - s if k == 2 else k - 1 - s
            sums |= {(i, m, max(2 - s, m - i)) for i in range(low, k)}
    calls = [0]
    combination = JetExpr.combination

    def counted(pairs):
        calls[0] += 1
        return combination(pairs)

    monkeypatch.setattr(JetExpr, "combination", staticmethod(counted))
    R = nth_root(A, n, slots=slots)
    assert calls[0] <= len(sums) + (slots - 1) * (n - 1), (calls[0], len(sums))
    monkeypatch.undo()
    assert agrees(series_power(R, n, slots=slots), A)


def test_nth_root_roundtrip_rational_randomized():
    # series_power composes through product_coeff alone, so it shares no code
    # with the memo of Leibniz sums inside nth_root
    rng = random.Random(71)
    uc = u(0) + par("c")
    plain = [as_expr(Fraction(2, 3)), u(0), u(1), par("b"), fn("f")]
    over_uc = [1 / uc, u(1) / uc ** 2, par("b") * u(0) / uc ** 3]
    for n, lead, slots in ((3, 1, 12), (3, Fraction(-27, 8), 11), (5, 32, 10),
                           (5, Fraction(1, 32), 10), (5, -1, 10)):
        # one coefficient over a power of u+c among the three below the lead
        lower = [rng.choice(over_uc), rng.choice(plain), rng.choice(plain + over_uc)]
        rng.shuffle(lower)
        coeffs = {n: as_expr(lead)}
        for i, c in zip(range(n - 1, n - 4, -1), lower):
            coeffs[i] = c * Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        A = PsdSeries.from_coeffs(coeffs, exact=True)
        R = nth_root(A, n, slots=slots)
        assert R.floor == 2 - slots
        assert agrees(series_power(R, n, slots=slots), A), (n, lead)
    # an inexact input, the cube of a truncated series B: its root is B
    B = PsdSeries.from_coeffs({1: as_expr(2), 0: u(0) / uc, -1: par("b"), -2: u(1) / uc ** 2},
                              exact=False, bottom=-3)
    A = series_power(B, 3, slots=12)
    assert not A.exact
    R = nth_root(A, 3, slots=12)
    assert R.floor == A.floor - 2
    assert agrees(R, B)
    assert agrees(series_power(R, 3, slots=12), A)


def test_jacobi_identity_randomized():
    rng = random.Random(43)
    pool = [as_expr(1), u(0), par("b")]
    for _ in range(60):
        A, B, C = (rand_series(rng, slots=3, term_pool=pool) for _ in range(3))
        s = commutator(A, commutator(B, C))
        s = s + commutator(B, commutator(C, A))
        s = s + commutator(C, commutator(A, B))
        assert s.is_zero_on_window()


def test_dt_series_coefficientwise(eq_abstract):
    from jetcalc.calculus import total_t
    A = PsdSeries.from_coeffs({1: u(0), 0: u(1)})
    got = dt_series(A, eq_abstract)
    assert got.coeff(1) == total_t(u(0), eq_abstract)
    assert got.coeff(0) == total_t(u(1), eq_abstract)


def test_window_bookkeeping_addition():
    A = PsdSeries.from_coeffs({2: u(0)}, exact=False, bottom=0)
    B = PsdSeries.from_coeffs({1: u(1)}, exact=True)
    C = A + B
    assert C.floor == 0
    assert not C.exact
    with pytest.raises(IndexError):
        C.coeff(-1)


def test_explicit_zeros_leave_no_trace():
    # a series is its nonzero terms plus one floor, so zero entries, a
    # cancelled lead included, change neither equality nor the hash
    for exact, bottom in ((True, None), (False, -3)):
        plain = PsdSeries.from_coeffs({2: u(0), -1: par("b")}, exact, bottom)
        padded = PsdSeries.from_coeffs({3: as_expr(0), 2: u(0), 0: u(1) - u(1),
                                        -1: par("b"), -3: as_expr(0)}, exact, bottom)
        assert padded == plain and hash(padded) == hash(plain)
        assert padded.degree() == 2 and padded.exact == exact
    cancelled = (xi(2) + xi(1)) - xi(2)
    assert cancelled == xi(1) and hash(cancelled) == hash(xi(1))


def test_sum_then_difference_is_canonical_randomized():
    rng = random.Random(53)

    def with_floor(floor):
        top = rng.randint(floor, floor + 4)
        return rand_series(rng, top_range=(top, top), slots=top - floor + 1)

    for _ in range(100):
        A, B = with_floor(-2), with_floor(-2)
        assert A.floor == B.floor == -2
        got = (A + B) - B
        assert got == A and hash(got) == hash(A)


def test_coeff_below_the_floor_raises():
    A = PsdSeries.from_coeffs({2: u(0)}, exact=False, bottom=0)
    assert A.coeff(0).is_zero and A.coeff(3).is_zero and A.coeff(2) == u(0)
    with pytest.raises(IndexError):
        A.coeff(-1)
    assert PsdSeries.from_coeffs({2: u(0)}).coeff(-50).is_zero


def test_windows_count_from_the_degree_after_a_cancelled_lead():
    S = PsdSeries.from_coeffs({3: as_expr(1), 2: as_expr(1), 1: u(0), 0: u(1)},
                              exact=False, bottom=-1) - xi(3)
    assert S.degree() == 2
    assert compose(S, S, slots=3).floor == 2
    R = nth_root(S, 2)
    assert R.floor == S.floor - 1
    assert agrees(series_power(R, 2, slots=4), S)
