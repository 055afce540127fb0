"""Independent closed-form cases beyond the two workhorse equations:
a two-ray second-order equation, a complex direction, and an m0 = 1 pure
q-difference equation.  Each continuation has an exact reference."""

import cmath
import math

import pytest

from qsum.equation import parse_equation
from qsum.formal import solve_formal
from qsum.newton import (characteristic_polynomial, check_shape,
                         newton_polygon, reduced_coefficients,
                         singular_directions)
from qsum.qborel import borel_transform, borel_transformed_equation, continue_spiral
from qsum.qlaplace import KernelSamples, asymptotic_check, residual_check


def build(text, orders, mmax, lam=1.0, Kt=None, Kz=1):
    eq = parse_equation(text, Kt=Kt or orders + 4, Kz=Kz)
    shape = check_shape(newton_polygon(eq))
    sol = solve_formal(eq, orders)
    beq = borel_transformed_equation(eq, shape.m0)
    grid = continue_spiral(beq, borel_transform(sol), lam, mmax)
    return eq, shape, sol, grid


def test_second_order_two_ray_equation():
    # t^2 S^2 X + X = 1: the transformed relation is (1 + xi^2/q) u = 1,
    # so u*(q^m) = 1/(1 + q^{2m-1}) and the rays sit at +-pi/2
    eq, shape, sol, grid = build("q=2; delta=1; m=2; d=0; eq: t^2*S^2(X) + S^0(X) = 1", 38, 30)
    assert shape.m0 == 0
    ds = singular_directions(
        characteristic_polynomial(eq, reduced_coefficients(eq, shape.m0), shape.m0))
    assert list(ds.rays) == [pytest.approx(-math.pi / 2), pytest.approx(math.pi / 2)]
    for m in range(0, 31):
        v = grid.values[m]
        got = v.series.constant_term() * 2.0 ** v.qexp
        want = 1.0 / (1.0 + 2.0 ** (2 * m - 1))
        assert abs(got - want) <= 1e-12 * abs(want)
    rep = residual_check(eq, KernelSamples(grid), [0.05, 0.08, 0.03 - 0.04j])
    assert rep.max_absolute <= 1e-8


def test_euler_along_imaginary_direction():
    eq, shape, sol, grid = build("q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1",
                                 40, 40, lam=1j)
    for m in range(0, 41):
        v = grid.values[m]
        got = v.series.constant_term() * 2.0 ** v.qexp
        want = 1.0 / (1.0 + 1j * 2.0 ** m)
        assert abs(got - want) <= 1e-9 * abs(want)
    rep = residual_check(eq, KernelSamples(grid), [0.1j, 0.05j, 0.07 * cmath.exp(2.0j)])
    assert rep.max_absolute <= 1e-8
    asym = asymptotic_check(sol, KernelSamples(grid), 0.3, 10)
    assert asym.passed


def test_corner_offset_one_pure_q_difference():
    # S X + t S^2 X = 1: u*(q^m) = 1/(1 + q^{m-1}) through the shifted relation
    eq, shape, sol, grid = build("q=2; delta=1; m=2; d=0; eq: S^1(X) + t*S^2(X) = 1", 38, 30)
    assert shape.m0 == 1
    for m in range(0, 31):
        v = grid.values[m]
        got = v.series.constant_term() * 2.0 ** v.qexp
        want = 1.0 / (1.0 + 2.0 ** (m - 1))
        assert abs(got - want) <= 1e-12 * abs(want)
    rep = residual_check(eq, KernelSamples(grid), [0.05, 0.1j, -0.06j])
    assert rep.max_absolute <= 1e-8


def test_two_z_variables_mixed_derivative():
    from qsum.pipeline import Options, run_report
    text = ("q=2; delta=1; m=2; d=2; "
            "eq: S^1(X) + t*S^2(X) + t^2*z2*S^0 Dz1^1 Dz2^1(X) = 1 + z1*z2")
    rep = run_report(text, Options(orders=10, mmax=10, n_check=6, Kz=4))
    assert all(v["status"] == "pass" for v in rep.verdicts.values())
    assert rep.residuals["max_absolute"] <= 1e-8


def test_non_dyadic_base():
    # same structure at q = 1.7: nothing in the pipeline depends on q = 2
    q = 1.7
    eq, shape, sol, grid = build("q=1.7; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1", 40, 30)
    for m in range(0, 31):
        v = grid.values[m]
        got = v.series.constant_term() * q ** v.qexp
        want = 1.0 / (1.0 + q ** m)
        assert abs(got - want) <= 1e-10 * abs(want)
    rep = residual_check(eq, KernelSamples(grid), [0.05, 0.1 * cmath.exp(1.2j)])
    assert rep.max_absolute <= 1e-7
