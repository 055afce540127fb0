import math

import pytest

from qsum.equation import parse_equation
from qsum.errors import SingularDirectionError
from qsum.newton import (CharPoly, DirectionSet, characteristic_polynomial,
                         check_interior, check_nondegeneracy,
                         check_order_floors, check_shape, check_strong_margin,
                         direction_clearance, durand_kerner, newton_polygon,
                         reduced_coefficients, singular_directions)
from qsum.series import TruncatedSeries


def euler():
    return parse_equation("q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1")


def example2():
    return parse_equation(
        "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)",
        Kt=8, Kz=6)


def test_polygon_euler():
    p = newton_polygon(euler())
    assert [(s.j, s.ord_t) for s in p.support] == [(0, 0), (1, 1)]
    assert p.vertices == ((0, 0), (1, 1))
    assert p.slopes == (0.0, 1.0, math.inf)


def test_polygon_single_quadrant():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^0(X) = 1")
    p = newton_polygon(eq)
    assert p.vertices == ((0, 0),)


def test_polygon_example2_vertices():
    p = newton_polygon(example2())
    assert p.vertices == ((1, 0), (2, 1))


def test_shape_results():
    assert check_shape(newton_polygon(euler())).m0 == 0
    assert check_shape(newton_polygon(example2())).m0 == 1
    bad = parse_equation("q=2; delta=1; m=1; d=0; eq: t*S^0(X) + t*S^1(X) = 1")
    rep = check_shape(newton_polygon(bad))
    assert not rep.ok and any("y >= 1" in r for r in rep.reasons)


def test_interior_condition():
    eq = example2()
    p = newton_polygon(eq)
    rep = check_interior(eq, p, 1)
    assert rep.passed

    # a z-derivative support point on the boundary segment must fail
    bdry = parse_equation("q=2; delta=1; m=3; d=1; eq: S^1(X) + t^2*S^3(X) + t*S^2 Dz1^1(X) = 1",
                          Kt=8, Kz=4)
    pb = newton_polygon(bdry)
    sh = check_shape(pb)
    assert sh.ok and sh.m0 == 1
    rep = check_interior(bdry, pb, sh.m0)
    assert not rep.passed  # point (2, 1) sits on the unit-slope edge

    vac = parse_equation("q=2; delta=1; m=1; d=1; eq: t*S^1(X) + S^0(X) = 1", Kz=4)
    assert check_interior(vac, newton_polygon(vac), 0).passed


def test_order_floors_entailed():
    for eq in (euler(), example2()):
        p = newton_polygon(eq)
        sh = check_shape(p)
        inter = check_interior(eq, p, sh.m0)
        rep = check_order_floors(eq, p, sh, inter)
        assert rep.passed

    bad = parse_equation("q=2; delta=1; m=1; d=0; eq: t*S^0(X) + t*S^1(X) = 1")
    pb = newton_polygon(bad)
    shb = check_shape(pb)
    rep = check_order_floors(bad, pb, shb, check_interior(bad, pb, 0))
    assert rep.skipped


def test_reduced_coefficients():
    eq = euler()
    b = reduced_coefficients(eq, 0)
    assert b[1].constant_term() == 1

    eq2 = example2()
    b2 = reduced_coefficients(eq2, 1)
    assert b2[2].constant_term() == 1

    eq3 = parse_equation("q=2; delta=1; m=2; d=1; eq: S^1(X) + t^2*(1+z1)*S^2(X) = 1",
                         Kt=8, Kz=4)
    b3 = reduced_coefficients(eq3, 1)
    assert b3[2].get(1, (0,)) == 1 and b3[2].get(1, (1,)) == 1


def test_nondegeneracy():
    eq = euler()
    rep = check_nondegeneracy(eq, reduced_coefficients(eq, 0), 0)
    assert rep.passed

    z_corner = parse_equation("q=2; delta=1; m=2; d=1; eq: z1*S^1(X) + t*S^2(X) = 1", Kz=4)
    rep = check_nondegeneracy(z_corner, reduced_coefficients(z_corner, 1), 1)
    assert not rep.passed and "corner" in rep.messages[0]

    t_top = parse_equation("q=2; delta=1; m=2; d=0; eq: S^1(X) + t^2*S^2(X) = 1")
    rep = check_nondegeneracy(t_top, reduced_coefficients(t_top, 1), 1)
    assert not rep.passed and "top" in rep.messages[0]


def test_strong_margin_flags_squared_route_regime():
    rep = check_strong_margin(example2(), 1)
    assert not rep.passed
    assert any("squared-variable route" in m for m in rep.messages)

    ok = parse_equation("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t^2*S^1 Dz1^1(X) = 1",
                        Kt=8, Kz=4)
    assert check_strong_margin(ok, 1).passed

    assert check_strong_margin(euler(), 0).passed  # vacuous


def test_characteristic_polynomials():
    eq = euler()
    P = characteristic_polynomial(eq, reduced_coefficients(eq, 0), 0)
    assert P.at_z0() == [1, 1]

    eq2 = example2()
    P2 = characteristic_polynomial(eq2, reduced_coefficients(eq2, 1), 1)
    assert P2.at_z0() == [1, 0.5]

    m01 = parse_equation("q=2; delta=1; m=2; d=0; eq: 3*S^1(X) + 2*t*S^2(X) = 1")
    P3 = characteristic_polynomial(m01, reduced_coefficients(m01, 1), 1)
    assert P3.at_z0() == [3, pytest.approx(2 * 2.0 ** -1.0)]


def test_directions():
    eq = euler()
    ds = singular_directions(characteristic_polynomial(eq, reduced_coefficients(eq, 0), 0))
    assert ds.roots == (-1,) and ds.rays == (math.pi,)

    eq2 = example2()
    ds2 = singular_directions(characteristic_polynomial(eq2, reduced_coefficients(eq2, 1), 1))
    assert ds2.roots[0] == pytest.approx(-2) and ds2.rays == (math.pi,)

    sym = CharPoly(2.0, 0, (TruncatedSeries.const(-4, 0, 1, 1),
                            TruncatedSeries.zero(0, 1, 1),
                            TruncatedSeries.const(1, 0, 1, 1)))
    ds3 = singular_directions(sym)
    roots = sorted(ds3.roots, key=lambda r: r.real)
    assert roots[0] == pytest.approx(-2) and roots[1] == pytest.approx(2)
    assert list(ds3.rays) == pytest.approx([0.0, math.pi])


def test_durand_kerner_high_degree():
    # (x-1)(x-2)(x-3)(x-4) expanded
    roots = durand_kerner([24, -50, 35, -10, 1])
    assert sorted(r.real for r in roots) == pytest.approx([1, 2, 3, 4], abs=1e-9)
    assert max(abs(r.imag) for r in roots) < 1e-9


def test_direction_clearance():
    ds = DirectionSet((-1 + 0j,), (math.pi,))
    assert direction_clearance(ds, 1.0) == pytest.approx(math.pi)
    assert direction_clearance(ds, 1j) == pytest.approx(math.pi / 2)
    assert direction_clearance(ds, -1.0) == pytest.approx(0.0)
    with pytest.raises(SingularDirectionError):
        direction_clearance(ds, 0.0)


def test_root_set_invariant_under_scaling():
    text = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)"
    eq = parse_equation(text, Kt=8, Kz=6)
    scaled = parse_equation(
        text.replace("S^1(X)", "(0.7-0.2i)*S^1(X)", 1)
            .replace("t*S^2(X)", "(0.7-0.2i)*t*S^2(X)")
            .replace("t*S^1 Dz1^1(X)", "(0.7-0.2i)*t*S^1 Dz1^1(X)")
            .replace("1/(1-z1)", "(0.7-0.2i)/(1-z1)"),
        Kt=8, Kz=6)
    for e in (eq, scaled):
        sh = check_shape(newton_polygon(e))
        ds = singular_directions(characteristic_polynomial(e, reduced_coefficients(e, sh.m0), sh.m0))
        assert list(ds.rays) == pytest.approx([math.pi], abs=1e-9)


def test_hull_stable_under_interior_points():
    base = parse_equation("q=2; delta=1; m=2; d=0; eq: S^0(X) + t^2*S^2(X) = 1")
    rich = parse_equation("q=2; delta=1; m=2; d=0; eq: S^0(X) + t^3*S^1(X) + t^2*S^2(X) = 1")
    assert newton_polygon(base).vertices == newton_polygon(rich).vertices
