import random

import pytest

from jetcalc import EvolutionEquation, ExponentOverflow, JetCalcError, NEG_INF
from jetcalc.calculus import (
    du_coefficient,
    euler,
    formal_x_integrate,
    frechet,
    frechet_hat,
    order,
    total_t,
    total_x,
)
from jetcalc.expr import as_expr, fn, ln_shift, ln_w, par, partial, t, u, unk, x
from jetcalc.series import PsdSeries

from conftest import gen_pool, in_ker_dx, random_expr


b = par("b")
c = par("c")


def K_abstract():
    return u(5) + b * u(3) + fn("f") * u(1)


def test_total_x_examples():
    assert total_x(x() * u(0)) == u(0) + x() * u(1)
    assert total_x(fn("f")) == fn("f", 1) * u(1)
    # the energy density differentiates through the antiderivative chain
    rho3 = u(2) ** 2 / 2 - b * u(1) ** 2 / 2 + fn("rhat")
    assert total_x(rho3) == u(2) * u(3) - b * u(1) * u(2) + fn("r") * u(1)


def test_total_x_unknowns_are_constant_in_x():
    assert total_x(unk("g")).is_zero
    assert total_x(unk("g", 2) * t()).is_zero


def test_total_t_examples(eq_abstract):
    K = K_abstract()
    assert total_t(u(0), eq_abstract) == K
    assert total_t(x(), eq_abstract).is_zero
    assert total_t(u(0) ** 2, eq_abstract) == 2 * u(0) * K
    assert total_t(t(), eq_abstract) == as_expr(1)
    assert total_t(unk("g"), eq_abstract) == unk("g", 1)


def test_frechet_examples(eq_abstract):
    K = K_abstract()
    # translation-in-x consistency: frechet along u_x equals D_x
    assert frechet(K, u(1)) == total_x(K)
    q = random_expr(random.Random(3))
    assert frechet(u(0), q) == q
    assert frechet(u(1) ** 2, u(0)) == 2 * u(1) ** 2


def test_frechet_hat_symbol(eq_abstract):
    S = frechet_hat(K_abstract())
    assert S.coeff(5) == as_expr(1)
    assert S.coeff(4).is_zero
    assert S.coeff(3) == b
    assert S.coeff(1) == fn("f")
    assert S.coeff(0) == fn("f", 1) * u(1)
    assert frechet_hat(u(0)) == PsdSeries.const(1)
    assert frechet_hat(u(1) ** 2) == PsdSeries.monomial(2 * u(1), 1)


def test_order():
    assert order(K_abstract()) == 5
    assert order(x() * t()) is NEG_INF
    assert order(fn("f")) == 0
    assert order(fn("rhat")) == 0
    assert order(1 / u(1)) == 1


def test_euler_examples():
    assert euler(u(1) ** 2 / 2) == -u(2)
    rho3 = u(2) ** 2 / 2 - b * u(1) ** 2 / 2 + fn("rhat")
    assert euler(rho3) == u(4) + b * u(2) + fn("r")
    assert euler(u(0) ** 2) == 2 * u(0)


def test_euler_annihilates_exact_terms():
    rng = random.Random(5)
    for _ in range(100):
        G = random_expr(rng)
        assert euler(total_x(G)).is_zero


def test_total_x_linear_and_leibniz():
    rng = random.Random(53)
    for _ in range(200):
        A = random_expr(rng)
        B = random_expr(rng)
        assert total_x(A + B) == total_x(A) + total_x(B)
        assert total_x(A * B) == total_x(A) * B + A * total_x(B)


def test_dt_dx_commute_on_equation(eq_abstract):
    rng = random.Random(9)
    for _ in range(60):
        e = random_expr(rng)
        a = total_t(total_x(e), eq_abstract)
        bb = total_x(total_t(e, eq_abstract))
        assert a == bb


def test_frechet_consistency(eq_abstract):
    # D_t(F) = frechet(F, K) + dF/dt for F free of scan unknowns
    from jetcalc.poly import T
    rng = random.Random(21)
    for _ in range(60):
        F = random_expr(rng)
        lhs = total_t(F, eq_abstract)
        rhs = frechet(F, eq_abstract.rhs) + partial(F, T)
        assert lhs == rhs


def test_frechet_hat_degree_matches_order():
    rng = random.Random(23)
    for _ in range(60):
        F = random_expr(rng)
        o = order(F)
        if o is NEG_INF:
            assert frechet_hat(F).degree() is NEG_INF
        else:
            assert frechet_hat(F).degree() == o


def test_formal_x_integrate_simple():
    z, r = formal_x_integrate(u(1) * u(2))
    assert z == u(1) ** 2 / 2 and r.is_zero


def test_formal_x_integrate_partial_reduction():
    F = u(0) * u(2)
    z, r = formal_x_integrate(F)
    # the contract: F = D_x(zeta) + residual with the residual of lower order
    assert (F - total_x(z) - r).is_zero
    assert z == u(0) * u(1)
    assert r == -u(1) ** 2


def test_formal_x_integrate_rejects_nonexact():
    z, r = formal_x_integrate(u(1) ** 2)
    assert z.is_zero
    assert r == u(1) ** 2


def test_formal_x_integrate_kernel_integrated_in_x():
    # an element of ker D_x integrates to x times itself, with no residual
    g = unk("g", 1)
    z, r = formal_x_integrate(g)
    assert r.is_zero and z == x() * g


def test_formal_x_integrate_explicit_x():
    z, r = formal_x_integrate(x() ** 2 * par("b"))
    assert r.is_zero
    assert z == x() ** 3 * par("b") / 3
    # x*u_x is not exact: delta(x u_x)/delta u = -1
    F = x() * u(1)
    z, r = formal_x_integrate(F)
    assert (F - total_x(z) - r).is_zero
    assert r == -u(0)
    # but x*u_x + u = D_x(x*u) is
    z, r = formal_x_integrate(x() * u(1) + u(0))
    assert r.is_zero
    assert total_x(z) == x() * u(1) + u(0)


def test_formal_x_integrate_reads_the_power_of_u_plus_c_from_the_factorization():
    c = par("c")
    # a u-free factor beside (u+c)^2 leaves the power of u+c readable
    F = u(1) / ((u(0) + c) ** 2 * (c + t()))
    z, r = formal_x_integrate(F)
    assert r.is_zero and z == -1 / ((u(0) + c) * (c + t()))
    # a u-dependent factor other than u+c is outside the class at once; this
    # used to multiply by u+c up to 64 times, with a gcd each time
    F = (24 * c ** 4 * u(0) - 48 * c ** 2 * u(0)) * u(1) / (4 * c ** 2 * u(0) ** 2 - 1)
    z, r = formal_x_integrate(F)
    assert z.is_zero and r == F


def test_formal_x_integrate_antiderivative_chain():
    # u-integration through the f -> r -> rhat chain
    z, r = formal_x_integrate(fn("f") * u(1))
    assert r.is_zero and z == fn("r")
    z, r = formal_x_integrate(2 * u(0) * fn("f") * u(1))
    assert r.is_zero
    assert total_x(z) == 2 * u(0) * fn("f") * u(1)
    # quadratic pattern r*f integrates to r^2/2
    z, r = formal_x_integrate(fn("r") * fn("f") * u(1))
    assert r.is_zero and z == fn("r") ** 2 / 2


@pytest.mark.parametrize("F", [
    fn("f") * ln_shift() * u(1),  # two symbol families in one product
    u(1) / fn("f"),  # a symbol in the denominator
    u(1) * ln_shift() / fn("f"),
    ln_shift() * u(1) / (u(0) ** 2 + 1),  # a denominator other than (u+c)^k
    fn("f") * u(1) / (u(0) + c),
    fn("rhat") * u(1),  # nothing integrates to rhat
    1 / (1 + u(1) ** 2),  # the top jet in the denominator
    ln_w() * u(1),  # ln(w), the logarithm of the other coordinate, in u
], ids=["f_ln", "over_f", "ln_over_f", "ln_over_u2_plus_1", "f_over_u_plus_c", "rhat",
        "top_jet_over", "ln_w_in_u"])
def test_formal_x_integrate_refuses_outside_the_class(F):
    assert formal_x_integrate(F) == (0, F)


def test_formal_x_integrate_log_power_by_parts():
    z, r = formal_x_integrate(ln_shift() ** 2 * u(1) / (u(0) + c))
    assert r.is_zero and z == ln_shift() ** 3 / 3


def test_formal_x_integrate_f_chain_beside_log():
    # the chain symbol f is stripped first (to r), then the ln(u+c) part goes
    # by parts; once this came back whole as the residual
    F = (c ** 2 * fn("f") + 3 * u(0) ** 2 * ln_shift() / 2) * u(1) / (b ** 2 * c)
    z, r = formal_x_integrate(F)
    assert r.is_zero and not z.is_zero
    assert total_x(z) == F


@pytest.mark.parametrize("F", [
    par("b") * x() ** 32767,  # integrated in x
    u(1) * u(0) ** 32767,  # its slope integrated in u, with a constant coefficient
], ids=["in_x", "in_u"])
def test_formal_x_integrate_refuses_an_exponent_past_the_maximum(F):
    # the antiderivative's exponent 32768 does not fit a packed field; it must
    # not carry into the next field as a corrupt x^32768 or u^32768 term
    with pytest.raises(ExponentOverflow):
        formal_x_integrate(F)


def test_formal_x_integrate_roundtrip_randomized():
    rng = random.Random(31)
    pool = gen_pool(jets=3, with_f=False)
    for _ in range(150):
        G = random_expr(rng, pool=pool)
        F = total_x(G)
        z, r = formal_x_integrate(F)
        # ker-D_x material (from x*h(t) terms of G) stays in the residual
        assert in_ker_dx(r)
        assert total_x(z) == F - r
        if r.is_zero:
            assert total_x(z) == F


def test_equation_validation():
    with pytest.raises(JetCalcError):
        EvolutionEquation(u(1))  # order 1
    with pytest.raises(JetCalcError):
        EvolutionEquation(u(5) + unk("g") * u(1))


def test_dx_power_cache(eq_abstract):
    assert eq_abstract.dx_rhs(0) == eq_abstract.rhs
    assert eq_abstract.dx_rhs(2) == total_x(total_x(eq_abstract.rhs))
