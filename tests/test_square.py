import cmath
import math
import random

import pytest

from qsum.equation import parse_equation
from qsum.formal import solve_formal
from qsum.newton import (characteristic_polynomial, check_interior,
                         check_order_floors, check_shape, check_strong_margin,
                         newton_polygon, reduced_coefficients)
from qsum.qborel import borel_transform, borel_transformed_equation, continue_spiral
from qsum.series import TruncatedSeries
from qsum.square import (check_borel_square_identity,
                         check_charpoly_square_identity,
                         shift_square_identity_gap, substitute_square)

Q = 2.0
EX2 = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)"


def test_substitute_square_euler(euler_eq):
    sq = substitute_square(euler_eq)
    assert sq.equation.q == pytest.approx(2.0 ** 0.25)
    assert sq.m0_doubled == 0 and sq.equation.m == 2
    tmap = {(t.j, t.alpha): t.coeff for t in sq.equation.terms}
    assert set(tmap) == {(0, ()), (2, ())}
    assert tmap[(2, ())].get(2) == 1 and tmap[(2, ())].get(1) == 0
    assert sq.equation.rhs.constant_term() == 1


def test_substitute_square_coefficients():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: (1+t)*S^0(X) + t*S^1(X) = 1+t")
    sq = substitute_square(eq)
    c = {(t.j, t.alpha): t.coeff for t in sq.equation.terms}[(0, ())]
    assert c.get(0) == 1 and c.get(2) == 1 and c.get(1) == 0
    assert sq.equation.rhs.get(2) == 1


def test_ord_doubles_exactly():
    eq = parse_equation(EX2, Kt=10, Kz=6)
    sq = substitute_square(eq)
    orig = {(t.j, t.alpha): t.coeff.ord_t() for t in eq.terms}
    for t in sq.equation.terms:
        assert t.coeff.ord_t() == 2 * orig[(t.j // 2, t.alpha)]


def test_doubled_floors_examples(euler_eq):
    # the second equation misses the strong margin; its square has it
    eq = parse_equation(EX2, Kt=10, Kz=6)
    assert not check_strong_margin(eq, check_shape(newton_polygon(eq)).m0).passed
    for orig in (euler_eq, eq):
        sq = substitute_square(orig)
        polygon = newton_polygon(sq.equation)
        shape = check_shape(polygon)
        assert shape.ok and shape.m0 == sq.m0_doubled
        interior = check_interior(sq.equation, polygon, shape.m0)
        assert interior.passed
        assert check_order_floors(sq.equation, polygon, shape, interior).passed
        assert check_strong_margin(sq.equation, sq.m0_doubled).passed


def test_shift_identity_random_instances():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(100):
        coeffs = {}
        for _ in range(5):
            coeffs[(rng.randrange(4), (rng.randrange(3),))] = complex(
                rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = TruncatedSeries(1, 8, 6, coeffs)
        for m in range(1, 5):
            t0 = cmath.rect(rng.uniform(0.3, 1.2), rng.uniform(-3, 3))
            gap = shift_square_identity_gap(f, Q, m, t0, (0.4,))
            worst = max(worst, gap)
    assert worst <= 1e-12


def test_borel_square_identity_euler(euler_eq, euler_sol):
    u = borel_transform(euler_sol)
    sq = substitute_square(euler_eq)
    u1 = borel_transform(solve_formal(sq.equation, 80))
    rep = check_borel_square_identity(u, u1, Q)
    assert rep.passed

    # closed form at xi = 0.3: u1(xi) = 1/(1 + q^{-1/4} xi^2)
    xi = 0.3
    direct = sum(v.constant_term() * xi ** k for k, v in enumerate(u1.coeffs))
    assert direct == pytest.approx(1.0 / (1.0 + 2.0 ** -0.25 * 0.09), rel=1e-10)


def test_borel_square_identity_z_dependent():
    eq = parse_equation(EX2, Kt=34, Kz=40)
    sol = solve_formal(eq, 32)
    u = borel_transform(sol)
    sq = substitute_square(eq)
    u1 = borel_transform(solve_formal(sq.equation, 64))
    rep = check_borel_square_identity(u, u1, Q, z0=(0.1,))
    assert rep.passed and rep.worst <= 1e-10


def test_charpoly_square_identity_euler(euler_eq):
    shape = check_shape(newton_polygon(euler_eq))
    P = characteristic_polynomial(euler_eq, reduced_coefficients(euler_eq, shape.m0), shape.m0)
    sq = substitute_square(euler_eq)
    shape1 = check_shape(newton_polygon(sq.equation))
    P1 = characteristic_polynomial(sq.equation, reduced_coefficients(sq.equation, shape1.m0), shape1.m0)
    # P1(rho) = q^{-1/4} rho^2 + 1 exactly
    assert P1.at_z0() == [1, 0, pytest.approx(2.0 ** -0.25)]
    rep = check_charpoly_square_identity(P, P1, shape.m0, Q)
    assert rep.passed and not rep.messages
    # roots are +- i q^{1/8}, squaring to -q^{1/4} on the ray at pi
    from qsum.newton import durand_kerner
    for rho in durand_kerner(P1.at_z0()):
        assert abs(rho) == pytest.approx(2.0 ** 0.125, rel=1e-9)
        assert cmath.phase(2.0 ** -0.25 * rho * rho) == pytest.approx(math.pi, abs=1e-9)


def test_charpoly_square_identity_example2():
    eq = parse_equation(EX2, Kt=10, Kz=6)
    shape = check_shape(newton_polygon(eq))
    P = characteristic_polynomial(eq, reduced_coefficients(eq, shape.m0), shape.m0)
    sq = substitute_square(eq)
    shape1 = check_shape(newton_polygon(sq.equation))
    assert shape1.m0 == 2 * shape.m0
    P1 = characteristic_polynomial(sq.equation, reduced_coefficients(sq.equation, shape1.m0), shape1.m0)
    rep = check_charpoly_square_identity(P, P1, shape.m0, Q)
    assert rep.passed and rep.worst <= 1e-12


def test_squared_pipeline_reproduces_continuation():
    # continue the squared equation at rho = sqrt(lam q^{-1/4} ...): grid points
    # with even index map onto the original spiral at base lam * q^{-1/4}
    lam = 1.0
    eq = parse_equation(EX2, Kt=20, Kz=72)
    shape = check_shape(newton_polygon(eq))
    sol = solve_formal(eq, 16)
    u = borel_transform(sol)
    beq = borel_transformed_equation(eq, shape.m0)
    lam_base = lam * Q ** -0.25
    grid = continue_spiral(beq, u, lam_base, 12)

    sq = substitute_square(eq)
    sol1 = solve_formal(sq.equation, 32)
    u1 = borel_transform(sol1)
    beq1 = borel_transformed_equation(sq.equation, sq.m0_doubled)
    rho = cmath.sqrt(lam)
    grid1 = continue_spiral(beq1, u1, rho, 25)

    checked = 0
    for k in range(0, 13):
        m1 = 2 * k
        if m1 > grid1.m_max or k > grid.m_max:
            break
        a = grid.values[k]
        b = grid1.values[m1]
        va = a.series.constant_term() * Q ** a.qexp
        vb = b.series.constant_term() * sq.equation.q ** b.qexp
        assert abs(va - vb) <= 1e-8 * max(abs(va), 1e-30)
        checked += 1
    assert checked >= 10
