import math

import pytest

import qsum.formal
from qsum.equation import parse_equation
from qsum.errors import ResonanceError
from qsum.formal import FormalSolution, gevrey_fit, solve_formal, verify_formal
from qsum.series import TruncatedSeries


def test_euler_closed_form_exact(euler_eq, euler_sol):
    for n, v in enumerate(euler_sol.scaled):
        assert v.constant_term() == (-1.0) ** n  # fp-exact
    assert euler_sol.count == 40


def test_example2_constant_rhs_closed_form():
    eq = parse_equation("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1",
                        Kt=26, Kz=26)
    sol = solve_formal(eq, 24)
    for n, v in enumerate(sol.scaled):
        assert v.evaluate(0, (0,)) == pytest.approx((-1.0) ** n * 2.0 ** (-n), rel=1e-14)


def test_zero_rhs_gives_zero_solution(euler_eq):
    hom = euler_eq._replace(rhs=TruncatedSeries.zero(0, euler_eq.Kt, euler_eq.Kz))
    sol = solve_formal(hom, 20)
    assert all(v.is_zero() for v in sol.scaled)
    assert verify_formal(hom, sol).max_relative == 0.0


def test_verify_euler_residual(euler_eq, euler_sol):
    rep = verify_formal(euler_eq, euler_sol)
    assert rep.passed and rep.max_relative <= 1e-13


def test_verify_flags_perturbation(euler_eq, euler_sol, monkeypatch):
    bad = list(euler_sol.scaled)
    bad[5] = bad[5] + TruncatedSeries.const(1e-3, 0, 1, bad[5].Kz)
    broken = FormalSolution(euler_sol.q, euler_sol.count, tuple(bad), euler_sol.R1, euler_sol.d)
    monkeypatch.setattr(qsum.formal, "FORMAL_RESIDUAL_TOL", 1e-8)
    rep = verify_formal(euler_eq, broken)
    assert rep.flagged == [5, 6]


def test_resonance_detected():
    # diagonal c_n = 1 - 2^n vanishes at n = 0
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^0(X) - S^1(X) + t*S^1(X) = 1")
    with pytest.raises(ResonanceError) as err:
        solve_formal(eq, 5)
    assert err.value.order == 0


def test_linearity_in_rhs():
    base = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = %s"
    f1 = parse_equation(base % "1 + t*z1", Kt=16, Kz=16)
    f2 = parse_equation(base % "z1^2 - 2*t^2", Kt=16, Kz=16)
    both = parse_equation(base % "(1 + t*z1) + (z1^2 - 2*t^2)", Kt=16, Kz=16)
    s1 = solve_formal(f1, 10)
    s2 = solve_formal(f2, 10)
    s12 = solve_formal(both, 10)
    for a, b, c in zip(s1.scaled, s2.scaled, s12.scaled):
        assert (a + b).approx_equal(c, 1e-12)


def test_gevrey_fit_euler(euler_sol):
    fit = gevrey_fit(euler_sol)
    assert fit.A == 1.0 and fit.H == 1.0
    assert all(g == 0.0 for g in fit.diag[1:])
    assert euler_sol.certified_by(fit)


def test_gevrey_fit_convergent_sequence():
    # X_n = 2^n is convergent data: scaled v_n = 2^n q^{-n(n-1)/2}
    q = 2.0
    vs = tuple(TruncatedSeries.const(2.0 ** n * q ** (-n * (n - 1) / 2.0), 0, 1, 1)
               for n in range(30))
    sol = FormalSolution(q, 29, vs, R1=0.5, d=0)
    fit = gevrey_fit(sol)
    assert fit.H <= 1.0
    assert sol.certified_by(fit)
    # diagnostic heads to -infinity
    assert fit.diag[29] < fit.diag[10] < fit.diag[2]


def test_gevrey_fit_single_coefficient():
    sol = FormalSolution(2.0, 2, (TruncatedSeries.const(7, 0, 1, 1),
                                  TruncatedSeries.zero(0, 1, 1),
                                  TruncatedSeries.zero(0, 1, 1)), R1=0.5, d=0)
    fit = gevrey_fit(sol)
    assert fit.A == pytest.approx(7.0) and sol.certified_by(fit)


def test_gevrey_fit_zero_solution():
    sol = FormalSolution(2.0, 3, tuple(TruncatedSeries.zero(0, 1, 1) for _ in range(4)),
                         R1=0.5, d=0)
    fit = gevrey_fit(sol)
    assert fit.A == 0.0


def test_scaled_storage_stays_finite():
    # q = 4, 60 orders: raw coefficients overflow around n = 23, scaled must not
    eq = parse_equation("q=4; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1", Kt=62, Kz=1)
    sol = solve_formal(eq, 60)
    for v in sol.scaled:
        c = v.constant_term()
        assert math.isfinite(c.real) and math.isfinite(c.imag)
    assert verify_formal(eq, sol).passed


def test_gevrey_window_at_multiple_of_three():
    # 30 orders: the window is 20..30, so a peak at order 20 sets h
    vs = tuple(TruncatedSeries.const(math.exp(10.0) if n == 20 else 1.0, 0, 1, 1)
               for n in range(31))
    fit = gevrey_fit(FormalSolution(2.0, 30, vs, R1=0.5, d=0))
    assert fit.H == pytest.approx(math.exp(0.5))
