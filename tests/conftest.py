import random
from fractions import Fraction

import pytest

from jetcalc import EvolutionEquation, FunctionSpec, gke
from jetcalc.expr import as_expr, fn, par, t, u, x
from jetcalc.poly import KIND_PARAM, KIND_T, KIND_UNKNOWN


def agrees(a, b) -> bool:
    """Two series are equal on their common guaranteed window."""
    return (a - b).is_zero_on_window()


def in_ker_dx(e) -> bool:
    """e lies in ker D_x: it holds only t, unknowns of t and parameters."""
    return all(g.kind in (KIND_T, KIND_UNKNOWN, KIND_PARAM) for g in e.generators())


@pytest.fixture(scope="session")
def eq_abstract():
    return gke(FunctionSpec.abstract())


@pytest.fixture(scope="session")
def eq_linear():
    return gke(FunctionSpec.linear())


@pytest.fixture(scope="session")
def eq_log():
    return gke(FunctionSpec.log_shift())


@pytest.fixture(scope="session")
def eq_quadratic():
    return gke(FunctionSpec.quadratic())


DEFAULT_POOL = None


def gen_pool(jets=3, with_f=True, with_x=True):
    pool = [u(i) for i in range(jets + 1)]
    if with_x:
        pool.append(x())
    pool.append(t())
    pool.append(par("b"))
    if with_f:
        pool.extend([fn("f"), fn("f", 1)])
    return pool


def random_expr(rng: random.Random, pool=None, max_terms=3, max_factors=2,
                max_exp=2):
    """Small random polynomial expression over the pool."""
    if pool is None:
        pool = gen_pool()
    total = as_expr(0)
    for _ in range(rng.randint(1, max_terms)):
        c = Fraction(rng.randint(-4, 4))
        if c == 0:
            c = Fraction(1)
        den = rng.choice((1, 1, 2, 3))
        term = as_expr(c / den)
        for _ in range(rng.randint(0, max_factors)):
            term = term * rng.choice(pool) ** rng.randint(1, max_exp)
        total = total + term
    return total
