import math

import pytest

import qsum.qborel
from qsum.corpus import corpus
from qsum.equation import parse_equation
from qsum.errors import SingularDirectionError
from qsum.formal import solve_formal
from qsum.newton import (characteristic_polynomial, check_shape,
                         newton_polygon, reduced_coefficients,
                         singular_directions)
from qsum.pipeline import Options, Run
from qsum.qborel import (borel_transform, borel_transformed_equation,
                         continue_spiral, fit_spiral_bound, lead_roots)
from qsum.qlaplace import q_laplace
from qsum.series import TruncatedSeries

from conftest import EULER_TEXT, EX2_TEXT, MIXED_D2_TEXT


def test_borel_coefficients_are_scaled_coefficients(euler_sol):
    u = borel_transform(euler_sol)
    assert u.coeffs == euler_sol.scaled  # structural identity, same data
    assert u.radius_est == pytest.approx(1.0)


def test_borel_of_zero_solution(euler_sol):
    from qsum.formal import FormalSolution
    zeros = tuple(TruncatedSeries.zero(0, 1, 1) for _ in range(10))
    u = borel_transform(FormalSolution(2.0, 9, zeros, 0.5, 0))
    assert math.isinf(u.radius_est)


def test_monomial_rule():
    # the transform of t^n has the single coefficient q^{-n(n-1)/2} at xi^n,
    # which is exactly the scaled representation the solver stores
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^0(X) = t^3", Kt=8)
    sol = solve_formal(eq, 6)
    u = borel_transform(sol)
    assert u.coeffs[3].constant_term() == pytest.approx(2.0 ** (-3))
    assert all(u.coeffs[k].is_zero() for k in (0, 1, 2, 4, 5))


def test_borel_equation_euler(euler_eq):
    beq = borel_transformed_equation(euler_eq, 0)
    assert beq.m0 == 0 and beq.reach == 0
    by_sp = {(t.s, t.p) for t in beq.terms}
    assert by_sp == {(0, 0), (0, 1)}
    assert [beq.lead.get(i) for i in range(2)] == [1, 1]  # L(xi) = 1 + xi
    assert lead_roots(beq) == [pytest.approx(-1)]


def test_borel_equation_example2(ex2_eq, ex2_parts):
    beq = ex2_parts["beq"]
    assert beq.m0 == 1 and beq.reach == 1
    zero = (0,) * 1
    assert {(t.s, t.p, t.alpha) for t in beq.terms} == {(1, 0, zero), (1, 1, zero), (0, 1, (1,))}
    assert lead_roots(beq) == [pytest.approx(-1)]  # q^{-m0} * (-2)


def test_borel_equation_pure_multiplication_term():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: t*S^0(X) + S^0(X) + t*S^1(X) = 1")
    beq = borel_transformed_equation(eq, 0)
    assert (-1, 1) in {(t.s, t.p) for t in beq.terms}


def test_continuation_euler_closed_form(euler_grid):
    worst = 0.0
    for m in range(0, 41):
        v = euler_grid.values[m]
        got = v.series.constant_term() * 2.0 ** v.qexp
        want = 1.0 / (1.0 + 2.0 ** m)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-9


def test_continuation_rejects_singular_direction(euler_eq, euler_sol):
    u = borel_transform(euler_sol)
    beq = borel_transformed_equation(euler_eq, 0)
    with pytest.raises(SingularDirectionError):
        continue_spiral(beq, u, -1.0, 10)


def test_overlap_consistency_example2(ex2_parts, monkeypatch):
    u = ex2_parts["u"]
    monkeypatch.setattr(qsum.qborel, "SEED_RADIUS_FRACTION", 0.125)
    grid = continue_spiral(ex2_parts["beq"], u, 1.0, 0)
    for m in range(grid.seed_top + 1, 1):
        xi = 2.0 ** m
        direct = sum(u.coeffs[k].constant_term() * xi ** k for k in range(len(u.coeffs)))
        v = grid.values[m]
        got = v.series.constant_term() * 2.0 ** v.qexp
        assert abs(got - direct) <= 1e-11 * abs(direct)


def test_scaling_identity_on_corpus(base_seed):
    for eq in corpus(20, base_seed):
        shape = check_shape(newton_polygon(eq))
        assert shape.ok
        P = characteristic_polynomial(eq, reduced_coefficients(eq, shape.m0), shape.m0)
        taus = singular_directions(P).roots
        beq = borel_transformed_equation(eq, shape.m0)
        xis = lead_roots(beq)
        assert len(xis) == len(taus)
        scale = eq.q ** (-shape.m0)
        for xi in xis:
            gap = min(abs(xi - scale * tau) / abs(scale * tau) for tau in taus)
            assert gap <= 1e-10


def test_bound_fit_euler(euler_grid, euler_sol):
    fit = fit_spiral_bound(euler_grid)
    assert fit.A <= 1.1 and fit.H <= 1.1
    assert fit.settled


def test_bound_fit_trivial_grids(euler_grid):
    from qsum.qborel import ScaledSeries, SpiralGrid
    zero = ScaledSeries(TruncatedSeries.zero(0, 1, 1), 0.0)
    g0 = SpiralGrid(1.0, 2.0, -1, 3, 0, {m: zero for m in range(-1, 4)}, [], 1.0, 0)
    fit = fit_spiral_bound(g0)
    assert fit.A == 0.0

    single = {-1: zero, 0: ScaledSeries(TruncatedSeries.const(5.0, 0, 1, 1), 0.0)}
    g1 = SpiralGrid(1.0, 2.0, -1, 0, 0, single, [], 1.0, 0)
    fit1 = fit_spiral_bound(g1)
    assert fit1.A == pytest.approx(5.0) and fit1.H == 1.0


def test_kernel_table_of_zero_and_constant_values():
    from qsum.qborel import ScaledSeries, SpiralGrid
    values = {0: ScaledSeries(TruncatedSeries.zero(0, 1, 1), 0.0),
              1: ScaledSeries(TruncatedSeries.const(1.5, 0, 1, 1), 3.0)}
    grid = SpiralGrid(1.0, 2.0, 0, 1, 0, values, [], 1.0, 0)
    sizes = {m: grid.logq_sizes[m] for m in range(grid.m_min, grid.m_max + 1)}
    assert sizes == {0: -math.inf, 1: 3.0 + math.log(1.5) / math.log(2.0)}


def test_truncation_stability_under_kz_doubling():
    # doubling the z-window moves the continued values at z = 0 by < 1e-9
    text = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)"
    vals = {}
    for Kz in (40, 80):
        eq = parse_equation(text, Kt=18, Kz=Kz)
        sol = solve_formal(eq, 14)
        u = borel_transform(sol)
        beq = borel_transformed_equation(eq, 1)
        grid = continue_spiral(beq, u, 1.0, 10)
        vals[Kz] = [grid.values[m].series.constant_term() * 2.0 ** grid.values[m].qexp
                    for m in range(0, 11)]
    for a, b in zip(vals[40], vals[80]):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_kernel_consistency_with_doubled_range(euler_grid, euler_eq, euler_sol, monkeypatch):
    u = borel_transform(euler_sol)
    beq = borel_transformed_equation(euler_eq, 0)
    assert continue_spiral(beq, u, 1.0, 60).m_min == -62
    # the constant is read at call time
    monkeypatch.setattr(qsum.qborel, "EXTRA_LOW", 100)
    wide = continue_spiral(beq, u, 1.0, 60)
    assert wide.m_min == -102
    for t in (0.1, 0.05 + 0.02j):
        a, _ = q_laplace(euler_grid, t)
        b, _ = q_laplace(wide, t)
        assert abs(a - b) <= 1e-6 * abs(b)



@pytest.mark.parametrize("text", [EULER_TEXT, EX2_TEXT, MIXED_D2_TEXT])
def test_seed_values_equal_the_combination_of_the_borel_coefficients(text):
    """Every seed value of a benchmark grid, default options, is the
    normalized TruncatedSeries.combination of the Borel coefficients
    times the powers of xi = lambda q^m, bit for bit and in key order.  The
    README d=1 grid has keys that cancel to exactly 0 and enter again, and
    its lowest indices have powers that underflow to 0."""
    run = Run(text, Options())
    u, grid = run.borel, run.grid
    for m in range(grid.m_min, grid.seed_top + 1):
        xi = grid.lam * grid.q ** float(m)
        powers, power = [], 1.0 + 0j
        for _ in u.coeffs:
            powers.append(power)
            power *= xi
        want = qsum.qborel._normalize(grid.q, TruncatedSeries.combination(zip(u.coeffs, powers)),
                                      0.0)
        got = grid.values[m]
        assert (got.series.Kt, got.series.Kz, got.qexp) == (want.series.Kt, want.series.Kz,
                                                            want.qexp), m
        assert repr(list(got.series.coeffs.items())) == repr(list(want.series.coeffs.items())), m
