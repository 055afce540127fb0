import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import qsum.qlaplace
from qsum.equation import parse_equation
from qsum.formal import solve_formal
from qsum.newton import check_shape, newton_polygon
from qsum.qborel import (ScaledSeries, SpiralGrid, borel_transform, borel_transformed_equation,
                         continue_spiral)
from qsum.series import TruncatedSeries

BASE_SEED = int(os.environ.get("QSUM_SEED", "20240901"))

EULER_TEXT = "q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1"
EX2_TEXT = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)"
MIXED_D2_TEXT = ("q=2; delta=1; m=2; d=2; "
                 "eq: S^1(X) + t*S^2(X) + t^2*z2*S^0 Dz1^1 Dz2^1(X) = 1 + z1*z2")


def monomial_grid(q, n, reach=60):
    """A grid on lambda = 1 whose value at index m is the monomial xi^n at
    xi = q^m, the constant series 1 with q-exponent n m, for m = -reach ..
    reach.  q_laplace over it sums the kernel inversion identity
    sum_m (q^m)^n / theta_q(q^m / t) = q^{n(n-1)/2} t^n."""
    one = TruncatedSeries.const(1.0, 0, 1, 1)
    values = {m: ScaledSeries(one, float(n * m)) for m in range(-reach, reach + 1)}
    return SpiralGrid(1.0, q, -reach, reach, 0, values, [], 1.0, 0)


@pytest.fixture
def cold_kernel_tables():
    """qsum.qlaplace.kernel_table.cache_clear, called once before the
    test: the work a test counts is a cold table's.  A test that counts
    per report calls it again before each one."""
    clear = qsum.qlaplace.kernel_table.cache_clear
    clear()
    return clear


@pytest.fixture(scope="session")
def base_seed():
    return BASE_SEED


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in RESULTS:
        tag = "PASS" if ok else "FAIL"
        terminalreporter.write_line("%s  criterion %s  (%s)" % (tag, name, detail))


@pytest.fixture(scope="session")
def euler_eq():
    return parse_equation(EULER_TEXT, Kt=45, Kz=1)


@pytest.fixture(scope="session")
def euler_sol(euler_eq):
    return solve_formal(euler_eq, 40)


@pytest.fixture(scope="session")
def euler_grid(euler_eq, euler_sol):
    u = borel_transform(euler_sol)
    beq = borel_transformed_equation(euler_eq, 0)
    return continue_spiral(beq, u, 1.0, 40)


@pytest.fixture(scope="session")
def ex2_eq():
    # window padded for 40 formal orders plus the march span (one z-degree each)
    return parse_equation(EX2_TEXT, Kt=48, Kz=94)


@pytest.fixture(scope="session")
def ex2_parts(ex2_eq):
    shape = check_shape(newton_polygon(ex2_eq))
    sol = solve_formal(ex2_eq, 40)
    u = borel_transform(sol)
    beq = borel_transformed_equation(ex2_eq, shape.m0)
    grid = continue_spiral(beq, u, 1.0, 40)
    return {"shape": shape, "sol": sol, "u": u, "beq": beq, "grid": grid}
