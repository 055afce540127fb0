import cmath
import math
import random

import pytest

from qsum.errors import PoleProximityError
from qsum.qborel import borel_transform, borel_transformed_equation, continue_spiral
from qsum.qlaplace import (THETA_TERM_CUTOFF, SpiralGeometry, _theta_polar, asymptotic_check,
                           q_laplace, q_laplace_series, residual_check, sample_fan, theta,
                           zone_membership)
from qsum.scaled import QScaled

Q = 2.0

# value of theta(1) for q=2, pinned on the first verified run against the
# symmetric direct sum
THETA_ONE_Q2 = 3.2832651213103077


def direct_theta(x, q, nrange=60):
    return sum(q ** (-n * (n - 1) / 2.0) * x ** n for n in range(-nrange, nrange + 1))


def test_theta_functional_equation():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(100):
        x = cmath.rect(math.exp(rng.uniform(-3.0, 3.0)), rng.uniform(-math.pi, math.pi))
        lhs = theta(Q * x, Q)
        rhs = QScaled(Q, Q * x) * theta(x, Q)
        worst = max(worst, abs((lhs / rhs).to_complex() - 1.0))
    assert worst <= 1e-12


def test_theta_zero_set():
    for k in range(-3, 4):
        z = theta(-Q ** k, Q)
        ref = theta(Q ** k, Q)
        assert math.exp(z.log_abs() - ref.log_abs()) <= 1e-10


def test_theta_regression_value():
    got = theta(1.0, Q).to_complex()
    assert got == pytest.approx(THETA_ONE_Q2, rel=1e-15)
    assert got == pytest.approx(direct_theta(1.0, Q), rel=1e-15)


def test_theta_rejects_origin():
    with pytest.raises(ValueError):
        theta(0.0, Q)


def test_theta_extreme_argument_magnitudes():
    # theta value far beyond double range; checked through the functional eq
    big = theta(2.0 ** 40, Q)
    ref = theta(2.0 ** 39, Q)
    expect = QScaled(Q, 1.0, 40.0) * ref  # q x theta(x) with x = 2^39
    assert abs((big / expect).to_complex() - 1.0) <= 1e-12
    assert big.logq_abs() > 700  # not representable unscaled


def _closure_theta_polar(q, logq_mag, phase):
    """The reference theta: the symmetric direct sum with its terms made
    by a closure, as _theta_polar was first written."""
    n0 = round(logq_mag + 0.5)
    lnq = math.log(q)

    def term(n):
        rel = (n - n0) * logq_mag - (n * (n - 1) - n0 * (n0 - 1)) / 2.0
        return cmath.rect(math.exp(rel * lnq), n * phase)

    acc = term(n0)
    peak = abs(acc)
    for step in (1, -1):
        n = n0 + step
        while True:
            piece = term(n)
            acc += piece
            mag = abs(piece)
            peak = max(peak, mag)
            if mag < THETA_TERM_CUTOFF * peak:
                break
            n += step
            if abs(n - n0) > 400:
                raise ArithmeticError("theta summation failed to localize")
    return QScaled(q, acc, n0 * logq_mag - n0 * (n0 - 1) / 2.0)


@pytest.mark.parametrize("q", [1.05, 1.2, 1.5, 2.0, 3.0, 10.0])
def test_theta_polar_equals_the_closure_form(q):
    rng = random.Random(int(q * 1000))
    lnq = math.log(q)
    # the kernel sums take the phase of lambda / t, t on the sample rays
    ray_phases = [cmath.phase(lam * cmath.rect(1.0, -2.0 * math.pi * (i + 0.5) / 8))
                  for lam in (1.0, 0.6 + 0.8j, -0.3 + 0.9j, 0.6 - 0.8j) for i in range(8)]
    phases = [0.0, math.pi, -math.pi, math.pi - 1e-12] + ray_phases
    mags = ([k / 2.0 for k in range(-60, 61)] + [rng.uniform(-80.0, 80.0) for _ in range(20)]
            + [k + math.log1p(delta) / lnq for k in (-7, -1, 0, 3, 12)
               for delta in (0.0, 1e-14, -1e-14, 1e-8, -1e-8, 1e-3, -1e-3)])
    for phase in phases:
        for logq_mag in mags:
            got = _theta_polar(q, logq_mag, phase)
            want = _closure_theta_polar(q, logq_mag, phase)
            assert (got.mantissa, got.qexp) == (want.mantissa, want.qexp)
    # points on and near the zero set -q^Z, through the public entry
    for k in (-3, 0, 2):
        for delta in (0.0, 1e-12, -1e-6):
            x = -q ** k * (1.0 + delta)
            got = theta(x, q)
            want = _closure_theta_polar(q, math.log(abs(x)) / lnq, cmath.phase(x))
            assert (got.mantissa, got.qexp) == (want.mantissa, want.qexp)


def test_theta_polar_localization_guard():
    # at q this close to 1 the terms outlast the 400-step guard
    for fn in (_theta_polar, _closure_theta_polar):
        with pytest.raises(ArithmeticError, match="failed to localize"):
            fn(1.0001, 0.3, 0.0)


def test_zone_membership_examples():
    g = SpiralGeometry(1.0, 0.3, Q)
    inside = zone_membership(g, -1.0)
    assert inside.kind == "inside" and inside.m == 0
    assert zone_membership(g, 1.0).outside
    assert zone_membership(g, 1j).outside
    assert g.disjointness_threshold() == pytest.approx(1.0 / 3.0)


def test_zone_near_boundary_band():
    g = SpiralGeometry(1.0, 0.3, Q)
    # just outside the disk |1 + 1/t| = 0.3: nudge epsilon*1.05
    t = -1.0 / (1.0 + 0.3 * 1.05)
    assert zone_membership(g, t).kind == "near-boundary"


def test_kernel_inversion_identity():
    lam, t = 1.0, 0.3
    base = math.log(abs(lam)) / math.log(Q)
    for n in range(0, 9):
        acc = QScaled.zero(Q)
        for m in range(-60, 61):
            th = theta(lam * Q ** m / t, Q)
            num = QScaled.from_polar(Q, n * (base + m), 0.0)
            acc = acc + num / th
        want = QScaled(Q, t ** n, n * (n - 1) / 2.0)
        assert abs((acc / want).to_complex() - 1.0) <= 1e-7


def test_q_laplace_euler_value_and_rejection(euler_grid):
    w = q_laplace(euler_grid, 0.1)
    assert abs(w - 0.9150287008940956) <= 1e-9  # regression, cross-run stable
    with pytest.raises(PoleProximityError):
        q_laplace(euler_grid, -0.125)  # on the pole spiral


def test_q_laplace_zero_grid(euler_grid):
    from qsum.qborel import ScaledSeries, SpiralGrid
    from qsum.series import TruncatedSeries
    zero = ScaledSeries(TruncatedSeries.zero(0, 1, 1), 0.0)
    g = SpiralGrid(1.0, Q, -30, 10, 0, {m: zero for m in range(-30, 11)}, [], 1.0, 0)
    assert q_laplace(g, 0.07) == 0


def test_q_laplace_representative_invariance(euler_eq, euler_sol):
    # lambda and lambda*q describe the same spiral: W may differ only by
    # the index bookkeeping, not by value
    u = borel_transform(euler_sol)
    beq = borel_transformed_equation(euler_eq, 0)
    g1 = continue_spiral(beq, u, 1.0, 40)
    g2 = continue_spiral(beq, u, 2.0, 40)
    for t in (0.08, 0.1 * cmath.exp(0.4j)):
        a = q_laplace(g1, t)
        b = q_laplace(g2, t)
        assert abs(a - b) <= 1e-9 * abs(a)


def test_q_laplace_pole_blowup(euler_grid):
    # approaching the pole at t = -1 radially: |W| must keep growing
    vals = []
    for delta in (1e-1, 1e-2, 1e-3):
        t = -(1.0 + delta)
        vals.append(abs(q_laplace(euler_grid, t, epsilon=2e-4)))
    assert vals[2] > vals[1] > vals[0]


def test_residual_euler(euler_eq, euler_grid):
    samples = [r * cmath.exp(1j * math.pi / 4) for r in (0.05, 0.1, 0.15)]
    rep = residual_check(euler_eq, euler_grid, samples)
    assert not rep.rejected
    assert rep.max_absolute <= 1e-6


def test_residual_zero_grid_homogeneous(euler_eq, euler_grid):
    from qsum.qborel import ScaledSeries, SpiralGrid
    from qsum.series import TruncatedSeries
    zero = ScaledSeries(TruncatedSeries.zero(0, 1, 1), 0.0)
    g = SpiralGrid(1.0, Q, -40, 10, 0, {m: zero for m in range(-40, 11)}, [], 1.0, 0)
    hom = euler_eq.with_rhs(TruncatedSeries.zero(0, euler_eq.Kt, euler_eq.Kz))
    rep = residual_check(hom, g, [0.05 + 0.05j])
    assert rep.max_absolute == 0.0


def test_residual_example2(ex2_eq, ex2_parts):
    samples = []
    for ang in (math.pi / 4, -math.pi / 4, math.pi / 2, 3 * math.pi / 4, 0.0):
        for r in (0.05, 0.1):
            samples.append(r * cmath.exp(1j * ang))
    rep = residual_check(ex2_eq, ex2_parts["grid"], samples)
    assert len(rep.samples) == 10 and not rep.rejected
    assert rep.max_absolute <= 1e-5


def test_asymptotic_euler_pass(euler_sol, euler_grid):
    rep = asymptotic_check(euler_sol, euler_grid, 0.3, 12)
    assert rep.passed
    assert rep.M > 0 and math.isfinite(rep.H)
    # every tabulated remainder satisfies the fitted envelope
    lnq = math.log(Q)
    for N in range(0, 13):
        for t, e in zip(rep.samples, rep.EN[N]):
            bound = (math.log(rep.M) + N * math.log(rep.H) - math.log(rep.epsilon)
                     + N * (N - 1) / 2.0 * lnq + N * math.log(abs(t)))
            if e > 0:
                assert math.log(e) <= bound + 1e-9


def test_asymptotic_n0_row_is_w_magnitude(euler_sol, euler_grid):
    rep = asymptotic_check(euler_sol, euler_grid, 0.3, 3)
    for w, e in zip(rep.Wvals, rep.EN[0]):
        assert e == pytest.approx(abs(w))


def test_asymptotic_constant_offset_fails(euler_sol, euler_grid):
    rep = asymptotic_check(euler_sol, euler_grid, 0.3, 12,
                           w_fn=lambda t: q_laplace(euler_grid, t) + 1.0)
    assert not rep.passed
    assert any("order-1" in r for r in rep.reasons)


def test_asymptotic_epsilon_must_be_disjoint(euler_sol, euler_grid):
    with pytest.raises(ValueError):
        asymptotic_check(euler_sol, euler_grid, 0.5, 4)


def _direct_q_laplace_series(grid, t, epsilon):
    """The kernel sum with a direct theta at every grid index: the
    reference the banded sum in q_laplace_series must reproduce exactly."""
    from qsum.errors import GridTooShortError
    from qsum.qlaplace import _theta_polar
    from qsum.series import TruncatedSeries
    q, lam = grid.q, grid.lam
    t = complex(t)
    assert zone_membership(SpiralGeometry(lam, epsilon, q), t).outside
    base_logq = math.log(abs(lam) / abs(t)) / math.log(q)
    phase = cmath.phase(lam / t)
    terms = []
    for m in range(grid.m_min, grid.m_max + 1):
        th = _theta_polar(q, base_logq + m, phase)
        val = grid.values[m]
        terms.append((m, val.series * (1.0 / th.mantissa), val.qexp - th.qexp))
    mags = [(m, e + (math.log(s.norm_max()) / math.log(q) if not s.is_zero() else -math.inf))
            for m, s, e in terms]
    finite = [lm for _, lm in mags if math.isfinite(lm)]
    if not finite:
        return TruncatedSeries.zero(grid.d, 1, grid.values[grid.m_max].series.Kz)
    top = max(finite)
    lnq = math.log(q)

    def check_tail(side_mags, side):
        tail = [lm for _, lm in side_mags[-3:]]
        if len(tail) < 3:
            raise GridTooShortError("grid too short on the %s side" % side)
        if not (tail[-1] < tail[-2] < tail[-3]):
            raise GridTooShortError(
                "kernel terms not yet decaying at the %s end of the grid" % side,
                needed=side_mags[-1][0])
        ratio = math.exp((tail[-1] - tail[-2]) * lnq)
        est = math.exp((tail[-1] - top) * lnq) * ratio / (1.0 - ratio)
        if est > 1e-12:
            raise GridTooShortError(
                "%s tail estimate %.2e exceeds %.0e of the partial sum" % (side, est, 1e-12),
                needed=side_mags[-1][0])

    check_tail(mags, "upper")
    check_tail(list(reversed(mags)), "lower")
    acc = None
    for (m, s, e), (_, lm) in zip(terms, mags):
        if not math.isfinite(lm) or lm < top + math.log(1e-16) / lnq:
            continue
        piece = s * (q ** (e - top))
        acc = piece if acc is None else acc + piece
    return acc * (q ** top)


def _near_disk_points(grid, ratio):
    """Points with |1 + lambda q^k / t| = ratio for a few k and directions."""
    return [-grid.lam * grid.q ** k / (1.0 + cmath.rect(ratio, phi))
            for k in (-3, -1) for phi in (0.7, 2.5)]


@pytest.fixture(scope="module")
def band_grids(euler_grid, ex2_parts):
    from qsum.pipeline import Options, Run
    from conftest import EULER_TEXT, EX2_TEXT
    small = dict(orders=20, mmax=20, n_check=8)
    return {"euler": euler_grid, "readme-d1": ex2_parts["grid"],
            "euler q=1.5": Run(EULER_TEXT.replace("q=2", "q=1.5"), Options(**small)).grid,
            "euler q=3": Run(EULER_TEXT.replace("q=2", "q=3"), Options(**small)).grid,
            "readme-d1 q=3": Run(EX2_TEXT.replace("q=2", "q=3"), Options(**small)).grid,
            "euler lambda=0.6+0.8i": Run(EULER_TEXT, Options(lam=0.6 + 0.8j, **small)).grid}


BAND_GRIDS = ["euler", "readme-d1", "euler q=1.5", "euler q=3", "readme-d1 q=3",
              "euler lambda=0.6+0.8i"]


def _band_cases(grid):
    """(epsilon, t): points near a disk, and 4-ray fans at epsilon 0.3 and
    0.15 where below the disjointness threshold."""
    lam = abs(grid.lam)
    cases = [(2e-4, t) for t in _near_disk_points(grid, 3e-4)]
    for eps in (0.3, 0.15):
        if eps < SpiralGeometry(grid.lam, eps, grid.q).disjointness_threshold():
            fan = sample_fan(SpiralGeometry(grid.lam, eps, grid.q), 4,
                             [0.005 * lam, 0.02 * lam, 0.1 * lam])
            cases += [(eps, t) for t in fan]
    return cases


@pytest.mark.parametrize("name", BAND_GRIDS)
def test_banded_kernel_sum_equals_the_direct_sum(band_grids, name):
    grid = band_grids[name]
    for eps, t in _band_cases(grid):
        got = q_laplace_series(grid, t, eps)
        want = _direct_q_laplace_series(grid, t, eps)
        assert got == want, (name, eps, t)


@pytest.mark.parametrize("name", BAND_GRIDS)
def test_w_at_the_origin_is_the_kernel_series_at_the_origin(band_grids, name):
    grid = band_grids[name]
    origin = (0.0,) * grid.d
    for eps, t in _band_cases(grid):
        assert q_laplace(grid, t, eps) == q_laplace_series(grid, t, eps).evaluate(0.0, origin)
    # the near-disk points at an epsilon whose disks hold them or come too near
    for eps in (1e-3, 3e-4 / 1.05):
        for t in _near_disk_points(grid, 3e-4):
            with pytest.raises(PoleProximityError) as want:
                q_laplace_series(grid, t, eps)
            with pytest.raises(PoleProximityError) as got:
                q_laplace(grid, t, eps)
            assert str(got.value) == str(want.value)


def test_banded_kernel_sum_reports_a_short_grid_as_the_direct_sum(euler_grid):
    from qsum.errors import GridTooShortError
    from qsum.qborel import ScaledSeries, SpiralGrid

    def cut(lo, hi, boost=()):
        """The grid on [lo, hi], its values at `boost` raised by q^200."""
        values = {m: euler_grid.values[m] for m in range(lo, hi + 1)}
        for m in boost:
            values[m] = ScaledSeries(values[m].series, values[m].qexp + 200.0)
        return SpiralGrid(euler_grid.lam, euler_grid.q, lo, hi, min(euler_grid.seed_top, hi),
                          values, euler_grid.lead_roots, euler_grid.R1, euler_grid.d)

    lo, hi = euler_grid.m_min, euler_grid.m_max
    kinds = set()
    # cut short, or with an end term that stops decaying far below the kept terms
    for grid in (cut(-5, hi), cut(-10, hi), cut(-14, hi), cut(lo, -5), cut(lo, -2), cut(-1, 0),
                 cut(lo, hi, boost=(lo,)), cut(lo, hi, boost=(hi,))):
        for t in (0.02 * cmath.exp(1j), 0.005):
            with pytest.raises(GridTooShortError) as want:
                _direct_q_laplace_series(grid, t, 0.3)
            with pytest.raises(GridTooShortError) as got:
                q_laplace_series(grid, t, 0.3)
            assert str(got.value) == str(want.value)
            assert got.value.needed == want.value.needed
            with pytest.raises(GridTooShortError) as at_origin:
                q_laplace(grid, t, 0.3)
            assert str(at_origin.value) == str(want.value)
            assert at_origin.value.needed == want.value.needed
            kinds.add(" ".join(str(want.value).split()[:3]))
    # both ends, the decay test and the tail estimate, and a grid of two points
    assert kinds == {"kernel terms not", "upper tail estimate", "lower tail estimate",
                     "grid too short"}, kinds


def test_resummed_value_beyond_double_range_raises(euler_grid):
    from qsum.qborel import ScaledSeries, SpiralGrid
    g = euler_grid
    values = {m: ScaledSeries(v.series, v.qexp + 1100.0) for m, v in g.values.items()}
    raised = SpiralGrid(g.lam, g.q, g.m_min, g.m_max, g.seed_top, values, g.lead_roots,
                        g.R1, g.d)
    for resum in (q_laplace, q_laplace_series):
        with pytest.raises(OverflowError) as err:
            resum(raised, 0.05, 0.3)
        assert str(err.value) == "resummed value magnitude q^1098.3 exceeds double range"
