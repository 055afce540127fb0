"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test records a line that the terminal-summary hook prints after the
run, so a plain pytest invocation shows the per-criterion outcome."""

import cmath
import math
import random
import time

import pytest

import qsum.qlaplace
from qsum.corpus import corpus
from qsum.equation import parse_equation
from qsum.formal import solve_formal
from qsum.newton import (characteristic_polynomial, check_interior,
                         check_order_floors, check_shape, check_strong_margin,
                         newton_polygon, reduced_coefficients,
                         singular_directions)
from qsum.qborel import (borel_transform, borel_transformed_equation,
                         continue_spiral, fit_spiral_bound, lead_roots)
from qsum.qlaplace import KernelSamples, asymptotic_check, q_laplace, residual_check, theta
from qsum.series import TruncatedSeries
from qsum.square import (check_borel_square_identity,
                         check_charpoly_square_identity,
                         shift_square_identity_gap, substitute_square)

import test_properties as props
from conftest import monomial_grid

RESULTS = []


def record(name, ok, detail=""):
    RESULTS.append((name, ok, detail))
    assert ok, "%s: %s" % (name, detail)


def ten_samples(radii=(0.05, 0.1)):
    out = []
    for ang in (math.pi / 4, -math.pi / 4, math.pi / 2, 3 * math.pi / 4, 0.0):
        for r in radii:
            out.append(r * cmath.exp(1j * ang))
    return out


def test_criterion_1_euler_end_to_end():
    t0 = time.perf_counter()
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1", Kt=45, Kz=1)
    sol = solve_formal(eq, 40)
    grid = continue_spiral(borel_transformed_equation(eq, 0), borel_transform(sol), 1.0, 40)
    exact = all(v.constant_term() == (-1.0) ** n for n, v in enumerate(sol.scaled))
    worst = 0.0
    for m in range(0, 41):
        v = grid.values[m]
        got = v.series.constant_term() * 2.0 ** v.qexp
        want = 1.0 / (1.0 + 2.0 ** m)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    record("1 q-Euler end-to-end",
           exact and worst <= 1e-9 and elapsed < 5.0,
           "coefficients fp-exact=%s, continuation rel err %.2e, %.2fs" % (exact, worst, elapsed))


def test_criterion_2_kernel_inversion():
    # the production kernel sum q_laplace over a grid of monomials xi^n
    q, t = 2.0, 0.3
    worst = 0.0
    for n in range(0, 9):
        w, _ = q_laplace(monomial_grid(q, n), t)
        want = q ** (n * (n - 1) / 2.0) * t ** n
        worst = max(worst, abs(w / want - 1.0))
    record("2 kernel inversion identity", worst <= 1e-7, "worst rel err %.2e" % worst)


def test_criterion_3_resummed_residuals(euler_eq, euler_grid, ex2_eq, ex2_parts):
    rep1 = residual_check(euler_eq, KernelSamples(euler_grid), ten_samples())
    rep2 = residual_check(ex2_eq, KernelSamples(ex2_parts["grid"]), ten_samples())
    ok = (len(rep1.samples) == 10 and rep1.max_absolute <= 1e-5
          and len(rep2.samples) == 10 and rep2.max_absolute <= 1e-5)
    record("3 resummed-solution residual", ok,
           "q-Euler %.2e, second equation %.2e" % (rep1.max_absolute, rep2.max_absolute))


def test_criterion_4_asymptotic_verifier(euler_sol, euler_grid, monkeypatch):
    base = asymptotic_check(euler_sol, KernelSamples(euler_grid), 0.3, 12)
    # the kernel tables keep fans placed with the fan constants: none may
    # serve the dense check, or keep its fans for the tests after it
    clear = qsum.qlaplace.kernel_table.cache_clear
    with monkeypatch.context() as patch:
        patch.setattr(qsum.qlaplace, "ASYMPTOTIC_RAYS", 16)
        patch.setattr(qsum.qlaplace, "ASYMPTOTIC_RADII", 24)
        clear()
        dense = asymptotic_check(euler_sol, KernelSamples(euler_grid), 0.3, 12)
    clear()
    # H is clamped to 1 on these fans, so its agreement alone cannot fail;
    # the normalized remainder at the deepest order must agree too
    stable = (abs(dense.H - base.H) <= 0.2 * base.H
              and abs(dense.rho[12] - base.rho[12]) <= 0.1 * base.rho[12])
    # W(t, 0) + 1 at every point the table gives
    kernel = KernelSamples(euler_grid)
    w_origin = kernel.origin
    kernel.origin = lambda t, k: (w_origin(t, k)[0] + 1.0, w_origin(t, k)[1])
    fault = asymptotic_check(euler_sol, kernel, 0.3, 12)
    fault_at_1 = (not fault.passed) and any("order-1" in r for r in fault.reasons)
    ok = base.passed and math.isfinite(base.M) and math.isfinite(base.H) and stable and fault_at_1
    record("4 asymptotic-expansion verifier", ok,
           "M=%.3g H=%.3g rho_12=%.3g, dense H=%.3g rho_12=%.3g, fault fails at N=1: %s"
           % (base.M, base.H, base.rho[12], dense.H, dense.rho[12], fault_at_1))


def test_criterion_5_spiral_bound(euler_grid, euler_sol, ex2_parts):
    fit1 = fit_spiral_bound(euler_grid)
    fit2 = fit_spiral_bound(ex2_parts["grid"])
    ok = (fit1.A <= 1.1 and fit1.H <= 1.1
          and math.isfinite(fit2.A) and math.isfinite(fit2.H) and fit2.settled)
    record("5 spiral growth bound", ok,
           "q-Euler C=%.3g H=%.3g; second equation C=%.3g H=%.3g bounded=%s"
           % (fit1.A, fit1.H, fit2.A, fit2.H, fit2.settled))


def test_criterion_6_polygon_and_directions(euler_eq, ex2_eq):
    p1 = newton_polygon(euler_eq)
    sh1 = check_shape(p1)
    ds1 = singular_directions(
        characteristic_polynomial(euler_eq, reduced_coefficients(euler_eq, sh1.m0), sh1.m0))
    ok1 = (sh1.m0 == 0 and p1.vertices == ((0, 0), (1, 1))
           and list(ds1.rays) == [pytest.approx(math.pi)])

    p2 = newton_polygon(ex2_eq)
    sh2 = check_shape(p2)
    P2 = characteristic_polynomial(ex2_eq, reduced_coefficients(ex2_eq, sh2.m0), sh2.m0)
    ds2 = singular_directions(P2)
    ok2 = (sh2.m0 == 1 and P2.at_z0() == [1, 0.5]
           and list(ds2.rays) == [pytest.approx(math.pi)])

    strong = check_strong_margin(ex2_eq, sh2.m0)
    flagged = (not strong.passed) and any("squared-variable route" in m for m in strong.messages)
    record("6 polygon and directions", ok1 and ok2 and flagged,
           "m0=(%s,%s), margin flag=%s" % (sh1.m0, sh2.m0, flagged))


def test_criterion_7_square_identities(euler_eq, euler_sol):
    q = 2.0
    # shift identity on 100 random instances
    rng = random.Random(17)
    worst_shift = 0.0
    for _ in range(100):
        coeffs = {(rng.randrange(4), (rng.randrange(3),)): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(5)}
        f = TruncatedSeries(1, 8, 6, coeffs)
        m = rng.randint(1, 4)
        t0 = cmath.rect(rng.uniform(0.3, 1.2), rng.uniform(-3, 3))
        worst_shift = max(worst_shift, shift_square_identity_gap(f, q, m, t0, (0.4,)))

    # transform and characteristic-polynomial identities on both equations
    worst43 = worst44 = 0.0
    for text, Kt, Kz, orders in (
        ("q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1", 45, 1, 40),
        ("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)", 34, 40, 32),
    ):
        eq = parse_equation(text, Kt=Kt, Kz=Kz)
        sh = check_shape(newton_polygon(eq))
        sol = solve_formal(eq, orders)
        u = borel_transform(sol)
        sq = substitute_square(eq)
        u1 = borel_transform(solve_formal(sq.equation, 2 * orders))
        z0 = None if eq.d == 0 else (0.1,)
        rep43 = check_borel_square_identity(u, u1, q, z0=z0)
        P = characteristic_polynomial(eq, reduced_coefficients(eq, sh.m0), sh.m0)
        sh1 = check_shape(newton_polygon(sq.equation))
        P1 = characteristic_polynomial(sq.equation, reduced_coefficients(sq.equation, sh1.m0), sh1.m0)
        rep44 = check_charpoly_square_identity(P, P1, sh.m0, q)
        assert rep43.passed and rep44.passed
        worst43 = max(worst43, rep43.worst)
        worst44 = max(worst44, rep44.worst)

    ex2 = parse_equation("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)",
                         Kt=10, Kz=6)
    sq = substitute_square(ex2)
    p1 = newton_polygon(sq.equation)
    sh1 = check_shape(p1)
    interior = check_interior(sq.equation, p1, sq.m0_doubled)
    margin = (sh1.ok and sh1.m0 == sq.m0_doubled and interior.passed
              and check_order_floors(sq.equation, p1, sh1, interior).passed
              and check_strong_margin(sq.equation, sq.m0_doubled).passed)
    ok = worst_shift <= 1e-12 and worst43 <= 1e-10 and worst44 <= 1e-10 and margin
    record("7 squared-variable identities", ok,
           "shift %.1e, transform %.1e, charpoly %.1e, squared margin=%s"
           % (worst_shift, worst43, worst44, margin))


def test_criterion_8_scaling_identity(base_seed):
    worst = 0.0
    for eq in corpus(20, base_seed):
        sh = check_shape(newton_polygon(eq))
        P = characteristic_polynomial(eq, reduced_coefficients(eq, sh.m0), sh.m0)
        taus = singular_directions(P).roots
        xis = lead_roots(borel_transformed_equation(eq, sh.m0))
        assert len(xis) == len(taus)
        scale = eq.q ** (-sh.m0)
        for xi in xis:
            worst = max(worst, min(abs(xi - scale * tau) / abs(scale * tau) for tau in taus))
    record("8 lead-symbol scaling identity", worst <= 1e-10,
           "20-equation corpus, worst rel gap %.2e" % worst)


def test_criterion_9_theta_properties():
    q = 2.0
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(100):
        x = cmath.rect(math.exp(rng.uniform(-3, 3)), rng.uniform(-math.pi, math.pi))
        lhs = theta(q * x, q).to_complex()
        rhs = q * x * theta(x, q).to_complex()
        worst = max(worst, abs(lhs / rhs - 1.0))
    zero_ok = all(
        math.exp(theta(-q ** k, q).log_abs() - theta(q ** k, q).log_abs()) <= 1e-10
        for k in range(-3, 4))
    record("9 theta kernel properties", worst <= 1e-12 and zero_ok,
           "functional eq %.2e, zero set ok=%s" % (worst, zero_ok))


def test_criterion_10_property_suites(base_seed):
    t0 = time.perf_counter()
    for prop in props.ALL_PROPERTIES:
        prop(base_seed)
    for offset in (1, 2, 3):
        seed = base_seed + offset
        props.property_conditions_entail_floors(seed)
        props.property_scaling_identity(seed)
        props.property_json_round_trip(seed)
        props.property_series_ring(seed)
    elapsed = time.perf_counter() - t0
    record("10 property suites under 4 seeds", elapsed < 60.0,
           "fixed seed %d plus 3 fresh, %.1fs" % (base_seed, elapsed))
