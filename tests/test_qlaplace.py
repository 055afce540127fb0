import cmath
import math
import random
import sys

import pytest

import qsum.qlaplace
from qsum.equation import parse_equation
from qsum.errors import GridTooShortError, PoleProximityError
from qsum.formal import solve_formal
from qsum.qborel import SpiralGrid, borel_transform, borel_transformed_equation, continue_spiral
from qsum.pipeline import Options, Run
from qsum.qlaplace import (ASYMPTOTIC_RADII, ASYMPTOTIC_RAYS, ASYMPTOTIC_SPAN, KernelSamples,
                           ResumReport, SpiralGeometry, _kernel_terms, _kernel_vector,
                           _theta_product, asymptotic_check, lattice_fan, q_laplace,
                           q_laplace_series, residual_check, sample_fan, theta, zone_membership)
from qsum.series import TruncatedSeries
from conftest import EULER_TEXT, EX2_TEXT, MIXED_D2_TEXT, monomial_grid

Q = 2.0

# value of theta(1) for q=2, pinned on the first verified run against the
# symmetric direct sum
THETA_ONE_Q2 = 3.2832651213103077


def direct_theta(x, q, nrange=60):
    return sum(q ** (-n * (n - 1) / 2.0) * x ** n for n in range(-nrange, nrange + 1))


def test_theta_regression_value():
    got = theta(1.0, Q).to_complex()
    assert got == pytest.approx(THETA_ONE_Q2, rel=1e-15)
    assert got == pytest.approx(direct_theta(1.0, Q), rel=1e-15)


def test_theta_rejects_origin():
    with pytest.raises(ValueError):
        theta(0.0, Q)


@pytest.mark.parametrize("x, q", [(1.5, 0.5), (1.5, 1.0), (1.5, -2.0), (1.5, math.inf),
                                  (1.5, math.nan), (math.nan, Q), (math.inf, Q),
                                  (complex(1.0, math.nan), Q)])
def test_theta_rejects_a_bad_base_or_a_non_finite_argument(x, q):
    # unchecked, q < 1 never leaves the reduction's loop and q = inf the product's
    with pytest.raises(ValueError):
        theta(x, q)


def test_theta_extreme_argument_magnitudes():
    # theta value far beyond double range; checked through the functional eq
    big = theta(2.0 ** 40, Q)
    ref = theta(2.0 ** 39, Q)
    # q x theta(x) with x = 2^39: the same mantissa, 40 more in the exponent
    assert abs(big.mantissa / ref.mantissa - 1.0) <= 1e-12
    assert big.qexp == ref.qexp + 40
    assert big.qexp > 700  # not representable unscaled


def test_theta_is_zero_on_the_zero_set():
    # x = -q^k reduces to y = -1 exactly, where the product's first factor is 0
    for q in (1.05, 1.2, 1.5, 2.0, 3.0, 10.0):
        for k in (-5, -1, 0, 1, 4):
            assert theta(-q ** k, q).mantissa == 0, (q, k)
        assert theta(-q ** 2 * (1.0 + 1e-12), q).mantissa != 0


def _stepwise_theta_product(y, q):
    """The triple product with each step's p^n, 1 - p^n and stop test
    computed in the loop, for comparison with _theta_product."""
    inv_y = 1.0 / y
    acc = 1.0 + y
    tail = (2.0 + q) / (q - 1.0)
    n = 0
    while True:
        n += 1
        pn = q ** -n
        acc *= (1.0 - pn) * (1.0 + pn * y) * (1.0 + pn * inv_y)
        if pn * tail < 0.5 * qsum.qlaplace.ROUNDING_UNIT:
            return acc, n


@pytest.mark.parametrize("q", [1.05, 1.2, 2.0, 10.0, 1000.0])
def test_theta_product_equals_the_stepwise_product(q):
    rng = random.Random(20241021)
    points = [1.0, -1.0, 1j, complex(-q ** 0.5, 0.0)] + [
        cmath.rect(q ** rng.random(), rng.uniform(-math.pi, math.pi)) for _ in range(40)]
    for y in points:
        assert repr(_theta_product(y, q)) == repr(_stepwise_theta_product(y, q)), y


@pytest.mark.parametrize("text", [EULER_TEXT, EX2_TEXT, MIXED_D2_TEXT])
def test_kernel_series_equals_the_combination_of_scaled_values(text):
    """At every point where a benchmark report sums W's z-series (each
    residual sample t shifted to q^j t), the table's series equals the
    combination of values[m].series * inv with the scales, times q^top,
    bit for bit and in key order."""
    run = Run(text, Options())
    grid, q = run.grid, run.grid.q
    shifts = {term.j for term in run.equation.terms}
    points = {s.t * q ** j for s in run.residuals.samples for j in shifts}
    assert points
    for t in points:
        kept, top, _ = _kernel_terms(_kernel_vector(grid, t), 0)
        want = TruncatedSeries.combination([(grid.values[m].series * inv, scale)
                                            for m, inv, scale in kept]) * complex(q ** top)
        got = run.kernel_samples.series(t)
        assert (got.Kt, got.Kz) == (want.Kt, want.Kz), t
        assert repr(list(got.coeffs.items())) == repr(list(want.coeffs.items())), t


def _mp_theta(mp, x, q):
    """theta_q(x) by the direct sum at mpmath's working precision: the
    terms on each side of the peak until they fall 10 digits further
    below it than that precision."""
    x, q = mp.mpc(x), mp.mpf(q)
    n0 = int(mp.nint(mp.log(abs(x)) / mp.log(q) + 0.5))
    cut = mp.mpf(10) ** -(mp.mp.dps + 10)
    acc, peak = mp.mpc(0), mp.mpf(0)
    for n, step in ((n0, 1), (n0 - 1, -1)):
        while True:
            term = q ** (-mp.mpf(n) * (n - 1) / 2) * x ** n
            acc += term
            peak = max(peak, abs(term))
            if abs(term) < cut * peak:
                break
            n += step
    return acc


def _theta_oracle_points(q):
    """(x, bound): 24 generic points and the extremes of double range,
    bound 1e-13 plus 16 units of 2^-53 per unit of |log_q x| (the closed
    form's k arg y rounds by a unit of |k| pi), and points at relative
    distance d = 1e-3 and 1e-6 from the zeros -q^k, radially and in
    angle, bound 4 units over d: the condition number of theta there is
    about 1/d, so no double evaluation does better."""
    rng = random.Random(int(q * 100))
    generic = [cmath.rect(q ** rng.uniform(-12.0, 12.0), rng.uniform(-math.pi, math.pi))
               for _ in range(24)]
    extremes = [5e-324, -1e-310j, 3e-300 + 4e-300j, 1.7e308, -1.7e308]
    points = [(x, 1e-13 + 16.0 * 2.0 ** -53 * abs(math.log(abs(x), q)))
              for x in generic + extremes]
    for k in (-4, -1, 0, 1, 3, 6):
        for d in (1e-3, 1e-6):
            for x in (-q ** k * (1.0 + d), -q ** k * (1.0 - d), -q ** k * cmath.rect(1.0, d)):
                points.append((x, 4.0 * 2.0 ** -53 / d))
    return points


@pytest.mark.parametrize("q", [1.05, 1.2, 1.5, 2.0, 3.0, 10.0])
def test_theta_matches_the_mpmath_oracle(q):
    """The triple product against a 120-digit direct sum.  At q = 1.05
    near a zero |theta| is about 1e-47 from terms of size 1, so the
    oracle needs those digits.  The direct sum this replaced fails every
    q here: 1e28 and 7e-6 relative at generic points for q = 1.05 and
    1.2, and 35 to 3e10 units over d near the zeros for q >= 1.2.  The
    mantissa is normalized: q**r with r in [0, 1], rounded."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(120):
        for x, bound in _theta_oracle_points(q):
            got = theta(x, q)
            assert 1.0 <= abs(got.mantissa) <= q * (1.0 + 2.0 ** -52), (q, x, got)
            want = _mp_theta(mp, x, q)
            err = abs(mp.mpc(got.mantissa) * mp.mpf(q) ** got.qexp - want) / abs(want)
            assert err <= bound, (q, x, float(err))


def _mp_kernel_sum(mp, grid, t, value):
    """sum_m value(m) / theta(lambda q^m / t) over the grid at mpmath's
    precision, every theta from theta(lambda / t) by the functional
    equation, which holds exactly there: theta(x0 q^m) = q^{m(m+1)/2}
    x0^m theta(x0) at m_min, then times q^(m+1) x0 per step up."""
    q, x0, lo = mp.mpf(grid.q), mp.mpc(grid.lam) / mp.mpc(t), grid.m_min
    th = q ** (mp.mpf(lo) * (lo + 1) / 2) * x0 ** lo * _mp_theta(mp, x0, grid.q)
    step, acc = q ** (lo + 1) * x0, mp.mpc(0)
    for m in range(lo, grid.m_max + 1):
        acc += value(m) / th
        th *= step
        step *= q
    return acc


@pytest.mark.parametrize("q, bound", [(1.2, 1e-5), (1.5, 1e-10), (2.0, 1e-13), (10.0, 1e-14)])
def test_euler_w_matches_the_exact_resummation(q, bound):
    """q-Euler's Borel function is 1/(1 + xi) exactly, so W(t, 0) is the
    kernel sum of those values over the grid.  The direct-sum theta this
    replaced gave W relative errors of 17, 2.3e-9 and 1.7e-12 at q = 1.2,
    1.5 and 2 on this fan; at q = 10 both theta agree to 2e-15."""
    mp = pytest.importorskip("mpmath")
    from qsum.pipeline import Options, Run
    from conftest import EULER_TEXT
    eps = min(0.3, 0.5 * (q - 1.0) / (q + 1.0))
    grid = Run(EULER_TEXT.replace("q=2", "q=%r" % q), Options(epsilon=eps)).grid
    with mp.workdps(60):
        for t in sample_fan(SpiralGeometry(grid.lam, eps, q), 8, [0.005, 0.02, 0.1]):
            w, _ = q_laplace(grid, t, eps)
            want = _mp_kernel_sum(mp, grid, t, lambda m: 1 / (1 + mp.mpc(grid.lam) * mp.mpf(q) ** m))
            assert abs(mp.mpc(w) - want) <= bound * abs(want), (q, t)


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


def test_zone_scan_skips_indices_beyond_double_range():
    # at q = 1e100 the scan around |t / lambda| = 1e250 or 1e300 reaches an
    # index whose q^m overflows; that index is never the nearest disk
    g = SpiralGeometry(1.0, 0.3, 1e100)
    far = zone_membership(g, 1e250)
    assert far.outside
    assert far.min_ratio == min(abs(1.0 + 1e100 ** float(m) / 1e250) for m in (1, 2, 3))
    on_pole = zone_membership(g, -1e300)
    assert on_pole.kind == "inside" and on_pole.m == 3 and on_pole.min_ratio == 0.0


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0, 10.0])
def test_kernel_inversion_identity(q):
    # the production kernel sum over a grid of monomials xi^n meets the
    # identity within its own rounding floor
    for t in (0.3, cmath.rect(0.3, 2.0)):
        for n in range(0, 9):
            w, floor = q_laplace(monomial_grid(q, n), t)
            assert abs(w - q ** (n * (n - 1) / 2.0) * t ** n) <= floor, (t, n)


def test_q_laplace_euler_value_and_rejection(euler_grid):
    w, _ = q_laplace(euler_grid, 0.1)
    assert abs(w - 0.9150287008940956) <= 1e-9  # regression, cross-run stable
    with pytest.raises(PoleProximityError):
        q_laplace(euler_grid, -0.125)  # on the pole spiral


def test_q_laplace_zero_grid(euler_grid):
    from qsum.qborel import ScaledSeries, SpiralGrid
    from qsum.series import TruncatedSeries
    zero = ScaledSeries(TruncatedSeries.zero(0, 1, 1), 0.0)
    g = SpiralGrid(1.0, Q, -30, 10, 0, {m: zero for m in range(-30, 11)}, [], 1.0, 0)
    assert q_laplace(g, 0.07) == (0, 0.0)


def test_q_laplace_representative_invariance(euler_eq, euler_sol):
    # lambda and lambda*q describe the same spiral: W may differ only by
    # the index bookkeeping, not by value
    u = borel_transform(euler_sol)
    beq = borel_transformed_equation(euler_eq, 0)
    g1 = continue_spiral(beq, u, 1.0, 40)
    g2 = continue_spiral(beq, u, 2.0, 40)
    for t in (0.08, 0.1 * cmath.exp(0.4j)):
        a, _ = q_laplace(g1, t)
        b, _ = q_laplace(g2, t)
        assert abs(a - b) <= 1e-9 * abs(a)


def test_q_laplace_pole_blowup(euler_grid):
    # approaching the pole at t = -1 radially: |W| must keep growing
    vals = []
    for delta in (1e-1, 1e-2, 1e-3):
        t = -(1.0 + delta)
        vals.append(abs(q_laplace(euler_grid, t, epsilon=2e-4)[0]))
    assert vals[2] > vals[1] > vals[0]


def test_residual_euler(euler_eq, euler_grid):
    samples = [r * cmath.exp(1j * math.pi / 4) for r in (0.05, 0.1, 0.15)]
    rep = residual_check(euler_eq, KernelSamples(euler_grid), samples)
    assert not rep.rejected
    assert rep.max_absolute <= 1e-6


def test_residual_zero_grid_homogeneous(euler_eq, euler_grid):
    from qsum.qborel import ScaledSeries, SpiralGrid
    from qsum.series import TruncatedSeries
    zero = ScaledSeries(TruncatedSeries.zero(0, 1, 1), 0.0)
    g = SpiralGrid(1.0, Q, -40, 10, 0, {m: zero for m in range(-40, 11)}, [], 1.0, 0)
    hom = euler_eq._replace(rhs=TruncatedSeries.zero(0, euler_eq.Kt, euler_eq.Kz))
    rep = residual_check(hom, KernelSamples(g), [0.05 + 0.05j])
    assert rep.max_absolute == 0.0


def test_residual_example2(ex2_eq, ex2_parts):
    samples = []
    for ang in (math.pi / 4, -math.pi / 4, math.pi / 2, 3 * math.pi / 4, 0.0):
        for r in (0.05, 0.1):
            samples.append(r * cmath.exp(1j * ang))
    rep = residual_check(ex2_eq, KernelSamples(ex2_parts["grid"]), samples)
    assert len(rep.samples) == 10 and not rep.rejected
    assert rep.max_absolute <= 1e-5


def test_asymptotic_euler_pass(euler_sol, euler_grid):
    rep = asymptotic_check(euler_sol, KernelSamples(euler_grid), 0.3, 12)
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
    rep = asymptotic_check(euler_sol, KernelSamples(euler_grid), 0.3, 3)
    for w, e in zip(rep.Wvals, rep.EN[0]):
        assert e == pytest.approx(abs(w))


def _faulted(grid, fault):
    """A kernel-sample table of grid whose (W(t, 0), floor) at every point
    is fault(W(t, 0), floor)."""
    kernel = KernelSamples(grid)
    w_origin = kernel.origin
    kernel.origin = lambda t, k: fault(*w_origin(t, k))
    return kernel


def test_asymptotic_constant_offset_fails(euler_sol, euler_grid):
    rep = asymptotic_check(euler_sol, _faulted(euler_grid, lambda w, floor: (w + 1.0, floor)),
                           0.3, 12)
    assert not rep.passed
    assert any("order-1" in r for r in rep.reasons)


def test_a_second_epsilon_sums_no_new_w(euler_sol, euler_grid, monkeypatch):
    """On one kernel-sample table, the epsilon/2 call reads every W the
    epsilon call summed, builds no kernel vector and one remainder row per
    point of its fan in fan order, and reports what a call on a fresh
    table does.  The fresh call builds one vector per (ray, class), 24 at
    q = 2, and finds the kept terms once per point t_c / q^k."""
    kernel = KernelSamples(euler_grid)
    asymptotic_check(euler_sol, kernel, 0.3, 12)
    kernel_vector, kernel_terms = qsum.qlaplace._kernel_vector, qsum.qlaplace._kernel_terms
    remainder_row = qsum.qlaplace.remainder_row
    built, summed, rows = [], [], []

    def counting_vector(grid, t):
        built.append(t)
        return kernel_vector(grid, t)

    def counting_terms(vec, k):
        summed.append(k)
        return kernel_terms(vec, k)

    def counting_row(q, values, w, t):
        rows.append(t)
        return remainder_row(q, values, w, t)
    monkeypatch.setattr(qsum.qlaplace, "_kernel_vector", counting_vector)
    monkeypatch.setattr(qsum.qlaplace, "_kernel_terms", counting_terms)
    monkeypatch.setattr(qsum.qlaplace, "remainder_row", counting_row)
    half = asymptotic_check(euler_sol, kernel, 0.15, 12)
    assert built == summed == [] and rows == half.samples
    rows.clear()
    fresh = asymptotic_check(euler_sol, KernelSamples(euler_grid), 0.15, 12)
    fan = lattice_fan(SpiralGeometry(euler_grid.lam, 0.15, euler_grid.q))
    assert rows == fresh.samples == [t for t, _, _ in fan] != []
    assert summed == [k for _, _, k in fan]
    assert built == list(dict.fromkeys(base for _, base, _ in fan)) and len(built) == 24
    for name in ResumReport._fields:
        assert getattr(half, name) == getattr(fresh, name), name


def test_asymptotic_rows_follow_the_solution_and_w(euler_sol, euler_grid):
    """On a table already read, a call with another solution, or after
    W(t, 0) is faulted, reports what a call on a fresh table does: the
    rows are keyed by all they depend on."""
    kernel = KernelSamples(euler_grid)
    assert asymptotic_check(euler_sol, kernel, 0.3, 12).passed
    doubled = solve_formal(parse_equation(EULER_TEXT.replace("= 1", "= 2"), Kt=45, Kz=1), 40)
    other = asymptotic_check(doubled, kernel, 0.3, 12)
    w_origin = kernel.origin
    kernel.origin = lambda t, k: (w_origin(t, k)[0] + 1.0, w_origin(t, k)[1])
    offset = asymptotic_check(euler_sol, kernel, 0.3, 12)
    fresh = (asymptotic_check(doubled, KernelSamples(euler_grid), 0.3, 12),
             asymptotic_check(euler_sol, _faulted(euler_grid, lambda w, floor: (w + 1.0, floor)),
                              0.3, 12))
    for got, want in zip((other, offset), fresh):
        assert not got.passed
        for name in ResumReport._fields:
            assert getattr(got, name) == getattr(want, name), name


def test_asymptotic_check_reads_only_remainders_above_the_floor():
    """At q = 1.3 the smallest-radius remainders of high order lie at W's
    rounding floor.  Read as they are, they trend upward and fail the
    check; dropped, the fit passes on the rest.  With every pair at or
    below the floor nothing is resolved and the verdict is a vacuous pass.
    (At q = 1.5 the lattice fan reaches only r_max / 9.3, and the
    remainders there stay above the floor.)"""
    from qsum.pipeline import Options, Run
    from conftest import EULER_TEXT
    run = Run(EULER_TEXT.replace("q=2", "q=1.3"), Options(epsilon=0.1))
    sol, grid = run.solution, run.grid
    rep = asymptotic_check(sol, KernelSamples(grid), 0.1, 12)
    assert rep.passed and rep.dropped > 0 and rep.used > 0
    assert rep.used + rep.dropped == len(rep.samples) * 13
    assert all(f > 0 for f in rep.floors)

    unfloored = asymptotic_check(sol, _faulted(grid, lambda w, floor: (w, 0.0)), 0.1, 12)
    assert not unfloored.passed and unfloored.dropped == 0
    assert any("trend upward" in r for r in unfloored.reasons)
    vacuous = asymptotic_check(sol, _faulted(grid, lambda w, floor: (w, math.inf)), 0.1, 12)
    assert vacuous.passed and vacuous.used == 0 and vacuous.rho[1:] == [None] * 12


def test_asymptotic_epsilon_must_be_disjoint(euler_sol, euler_grid):
    with pytest.raises(ValueError):
        asymptotic_check(euler_sol, KernelSamples(euler_grid), 0.5, 4)


def test_asymptotic_check_skips_remainders_outside_double_range():
    """At q = 10 and 40 orders the partial sums leave double range, so
    1,200 of the E_N are infinite.  Read as resolved they fit H = inf
    and M = 0 and still pass; skipped and counted as dropped, the fit
    is finite."""
    from qsum.pipeline import Options, Run
    from conftest import EULER_TEXT
    rep = Run(EULER_TEXT.replace("q=2", "q=10"), Options(orders=40, n_check=40)).asymptotic
    infinite = sum(e == math.inf for row in rep.EN for e in row)
    assert infinite > 0 and rep.dropped >= infinite
    assert rep.used + rep.dropped == len(rep.samples) * 41
    assert math.isfinite(rep.H) and math.isfinite(rep.M) and rep.M > 0


@pytest.mark.parametrize("q", [1.2, 2.0, 10.0])
@pytest.mark.parametrize("name", ["euler", "readme-d1"])
def test_remainder_row_matches_the_mpmath_partial_sums(name, q):
    """E_N = |W - partial_N| against the same v_N, t and W summed at 60
    digits.  The bound counts units u = 2^-53: term n, v_n exp(x_n) with
    x_n = n log t + n(n-1)/2 ln q, errs by the rounding of x_n, at most
    3 X_n with X_n = |n ln|t|| + n(n-1)/2 ln q + n |arg t|, plus 6 for
    the exponential and the product; each of the N additions by 2 of
    the partial sum, at most sum |terms|; the difference with W by 2 of
    |W| + sum |terms|, and the modulus by 1 of E_N.  Without the 3 X_n
    the bound fails by factors up to 6 at q = 10."""
    mp = pytest.importorskip("mpmath")
    from qsum.pipeline import Options, Run
    from qsum.qlaplace import ROUNDING_UNIT, remainder_row
    from conftest import EULER_TEXT, EX2_TEXT
    eps = min(0.3, 0.5 * (q - 1.0) / (q + 1.0))
    text = {"euler": EULER_TEXT, "readme-d1": EX2_TEXT}[name]
    run = Run(text.replace("q=2", "q=%r" % q), Options(epsilon=eps))
    rep = run.asymptotic
    values = run.solution.origin_values(12)
    lnq = math.log(q)
    with mp.workdps(60):
        for t, w in zip(rep.samples, rep.Wvals):
            row = remainder_row(q, values, w, t)
            partial, weighted, size = mp.mpc(0), 0.0, 0.0
            for N, vN in enumerate(values):
                want = abs(mp.mpc(w) - partial)
                bound = ROUNDING_UNIT * (weighted + 2.0 * (abs(w) + size) + float(want))
                assert abs(row[N] - want) <= bound, (name, q, t, N)
                term = mp.mpc(vN) * mp.mpc(t) ** N * mp.mpf(q) ** (N * (N - 1) // 2)
                partial += term
                X = N * abs(math.log(abs(t))) + N * (N - 1) / 2.0 * lnq + N * abs(cmath.phase(t))
                weighted += float(abs(term)) * (3.0 * X + 6.0 + 2.0 * len(values))
                size += float(abs(term))


@pytest.mark.parametrize("q", [1.05, 1.2, 1.5, 2.0, 3.0, 10.0, 1e3, 1e6])
def test_lattice_fan_radii_are_q_powers_within_the_span(q):
    """On each ray the fan's radii, ascending, are r_max q^(-j/s) for j =
    11 .. 0, with the least s >= 1 whose span q^(11/s) is at most 20.
    Radius j is t_c / q^(j // s), with the class base t_c at r_max
    q^(-(j mod s)/s) on the same ray: 8 min(s, 12) kernel vectors."""
    lam, eps = 0.6 + 0.8j, min(0.3, 0.45 * (q - 1.0) / (q + 1.0))
    fan = lattice_fan(SpiralGeometry(lam, eps, q))
    s = 1
    while q ** ((ASYMPTOTIC_RADII - 1) / s) > ASYMPTOTIC_SPAN:
        s += 1
    assert {1.5: 2, 2.0: 3, 3.0: 5}.get(q, s) == s
    r_max = 0.1 * abs(lam)
    assert len(fan) == ASYMPTOTIC_RAYS * ASYMPTOTIC_RADII
    for i in range(ASYMPTOTIC_RAYS):
        angle = cmath.phase(lam) + 2.0 * math.pi * (i + 0.5) / ASYMPTOTIC_RAYS
        ray = fan[i * ASYMPTOTIC_RADII:(i + 1) * ASYMPTOTIC_RADII]
        for (t, base, k), j in zip(ray, range(ASYMPTOTIC_RADII - 1, -1, -1)):
            assert k == j // s and t == base / q ** k, (q, i, j)
            assert abs(base - cmath.rect(r_max * q ** (-(j % s) / s), angle)) <= 1e-15 * r_max
            assert abs(abs(t) / (r_max * q ** (-j / s)) - 1.0) <= 1e-13, (q, i, j)
        assert abs(ray[-1][0]) / abs(ray[0][0]) <= ASYMPTOTIC_SPAN * (1.0 + 1e-13)
        assert [abs(t) for t, _, _ in ray] == sorted(abs(t) for t, _, _ in ray)
    vectors = {base for _, base, _ in fan}
    assert len(vectors) == ASYMPTOTIC_RAYS * min(s, ASYMPTOTIC_RADII)
    if q == 2.0:
        assert len(vectors) == 24


def test_remainder_row_is_infinite_once_a_term_leaves_double_range():
    """At q = 10 and 40 orders the q-Euler terms t^N q^{N(N-1)/2} (v_N =
    +-1) leave double range within the row: E_N is finite up to the
    first such term and inf for every order after it.  The QScaled
    partial sums this replaced did the same, except that their modulus
    turned inf above 2^1020 rather than the largest double, one order
    earlier on the radius 0.026 here."""
    from qsum.pipeline import Options, Run
    from qsum.qlaplace import remainder_row
    from conftest import EULER_TEXT
    q = 10.0
    run = Run(EULER_TEXT.replace("q=2", "q=10"), Options(orders=40, n_check=40))
    values = run.solution.origin_values(40)
    assert all(abs(v) == 1.0 for v in values)
    largest = math.log(sys.float_info.max)
    for t, w in zip(run.asymptotic.samples, run.asymptotic.Wvals):
        row = remainder_row(q, values, w, t)
        first = next(N for N in range(41)
                     if N * math.log(abs(t)) + N * (N - 1) / 2.0 * math.log(q) > largest)
        assert all(math.isfinite(e) for e in row[:first + 1]), t
        assert row[first + 1:] == [math.inf] * (40 - first), t


def _direct_q_laplace_series(grid, t, epsilon):
    """The kernel sum over every grid index, each term sized by the largest
    coefficient of its whole series, and the indices it keeps: the
    reference for q_laplace_series, which sizes the terms in closed form.
    Every theta comes from the one triple product at the reduced argument
    of lambda / t and the closed form, as there."""
    from qsum.errors import GridTooShortError
    from qsum.qlaplace import _shifted, _theta_product
    from qsum.series import TruncatedSeries
    q, lam = grid.q, grid.lam
    t = complex(t)
    assert zone_membership(SpiralGeometry(lam, epsilon, q), t).outside
    base_logq = math.log(abs(lam) / abs(t)) / math.log(q)
    phase = cmath.phase(lam / t)
    k0 = math.floor(base_logq)
    frac = base_logq - k0
    th, _ = _theta_product(cmath.rect(q ** frac, phase), q)
    log_th, arg_th = math.log(abs(th)) / math.log(q), cmath.phase(th)
    terms = []
    for m in range(grid.m_min, grid.m_max + 1):
        r, angle, qexp = _shifted(m + k0, frac, phase, log_th, arg_th)
        val = grid.values[m]
        terms.append((m, val.series * cmath.rect(q ** -r, -angle), val.qexp - qexp))
    mags = [(m, e + (math.log(s.norm_max()) / math.log(q) if not s.is_zero() else -math.inf))
            for m, s, e in terms]
    finite = [lm for _, lm in mags if math.isfinite(lm)]
    if not finite:
        return TruncatedSeries.zero(grid.d, 1, grid.values[grid.m_max].series.Kz), []
    top = max(finite)
    lnq = math.log(q)

    def check_tail(side_mags, side):
        tail = [lm for _, lm in side_mags[-3:]]
        if len(tail) < 3:
            raise GridTooShortError("grid too short on the %s side" % side)
        if not (tail[-1] < tail[-2] < tail[-3]):
            raise GridTooShortError("kernel terms not yet decaying at the %s end of the grid" % side)
        ratio = math.exp((tail[-1] - tail[-2]) * lnq)
        est = math.exp((tail[-1] - top) * lnq) * ratio / (1.0 - ratio)
        if est > 1e-12:
            raise GridTooShortError(
                "%s tail estimate %.2e exceeds %.0e of the partial sum" % (side, est, 1e-12))

    check_tail(mags, "upper")
    check_tail(list(reversed(mags)), "lower")
    acc, kept = None, []
    for (m, s, e), (_, lm) in zip(terms, mags):
        if not math.isfinite(lm) or lm < top + math.log(1e-16) / lnq:
            continue
        piece = s * (q ** (e - top))
        acc = piece if acc is None else acc + piece
        kept.append(m)
    return acc * (q ** top), kept


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
    """The closed-form sizes keep the indices the whole-series sizes of
    the reference keep, and W(t, 0) differs from the reference's by no
    more than q_laplace's rounding floor."""
    grid = band_grids[name]
    for eps, t in _band_cases(grid):
        assert _assert_equals_the_direct_sum(grid, t, eps) is not None, (name, eps, t)


def _full_scan_terms(vec, k):
    """_kernel_terms without the stop rule of its upward scan: every index
    from theta's vertex (or the upper three) up to m_max is sized, then
    the walk down, the tail checks, the drop rule and the floor's rtol as
    there.  Returns _kernel_terms' (terms, top, rtol) and the sizes by
    index."""
    from qsum.qlaplace import ROUNDING_UNIT, TERM_UNITS, _check_tail, _shifted
    grid, k0, frac, phase, log_th, arg_th, product_units, _ = vec
    q, lnq, k0 = grid.q, math.log(grid.q), k0 + k
    lo, hi = grid.m_min, grid.m_max

    def theta_size(m):
        return (m + k0) * (m + k0 + 1) / 2.0 + (m + k0) * frac + log_th
    start = max(lo, min(-k0, hi - 2))
    sizes = {m: grid.logq_sizes[m] - theta_size(m)
             for m in list(range(lo, min(lo + 3, start))) + list(range(start, hi + 1))}
    top, gap = max(sizes.values()), math.log(1e-16) / lnq
    for m in range(start - 1, lo + 2, -1):
        if grid.size_bounds[m] - theta_size(m) < top + gap - 1.0:
            break
        sizes[m] = grid.logq_sizes[m] - theta_size(m)
        top = max(top, sizes[m])
    if top == -math.inf:
        return ([], None, 0.0), sizes
    _check_tail([sizes[m] for m in range(max(hi - 2, lo), hi + 1)], top, lnq, "upper")
    _check_tail([sizes[m] for m in range(min(lo + 2, hi), lo - 1, -1)], top, lnq, "lower")
    if abs(top * lnq) >= 690.0:
        raise OverflowError("resummed value magnitude q^%.1f exceeds double range" % top)
    terms = []
    for m in sorted(sizes):
        if sizes[m] >= top + gap:
            r, angle, qexp = _shifted(m + k0, frac, phase, log_th, arg_th)
            terms.append((m, cmath.rect(q ** -r, -angle),
                          complex(q ** (grid.values[m].qexp - qexp - top))))
    k_max = max(abs(m + k0) for m, _, _ in terms)
    units = (product_units + 2.0 * (math.pi + lnq) * (k_max + 1) + 2.0 * abs(log_th * lnq)
             + math.log(1e16) + lnq + 1.0 + TERM_UNITS + len(terms) - 1)
    return (terms, top, units * ROUNDING_UNIT), sizes


def _scan_stop(vec, k, sizes, slack=0.0):
    """Where the upward scan of _kernel_terms stops at t / q^k, given the
    full scan's sizes, with the rise bound allowed `slack` q-units more
    than k0 + frac; None where it sizes every index up to m_max.  The
    scan's top starts from the three sizes at each end."""
    grid, k0, frac = vec[0], vec[1] + k, vec[2]
    lo, hi = grid.m_min, grid.m_max
    start = max(lo, min(-k0, hi - 2))
    ends = list(range(lo, min(lo + 3, start))) + list(range(max(hi - 2, lo), hi + 1))
    top = max(sizes[m] for m in ends)
    gap = math.log(1e-16) / math.log(grid.q)
    for m in range(start, hi - 3):
        top = max(top, sizes[m])
        if grid.rise_bounds[m - lo] <= k0 + frac + slack and sizes[m] < top + gap:
            return m
    return None


def _boosted(grid, boost):
    """grid with the values at the indices of `boost` raised by its q-powers,
    in a plain dict, so its kernel sums size every index below the vertex."""
    from qsum.qborel import ScaledSeries
    values = {m: grid.values[m] for m in range(grid.m_min, grid.m_max + 1)}
    for m, power in boost.items():
        values[m] = ScaledSeries(values[m].series, values[m].qexp + power)
    return SpiralGrid(grid.lam, grid.q, grid.m_min, grid.m_max, grid.seed_top, values,
                      grid.lead_roots, grid.R1, grid.d)


def _assert_equals_the_direct_sum(grid, t, eps):
    """q_laplace, q_laplace_series and origin(t, 0) at t keep the direct
    sum's indices and agree with it within the floor, or raise its error.
    Returns the indices kept."""
    try:
        want, kept = _direct_q_laplace_series(grid, t, eps)
    except (GridTooShortError, OverflowError) as err:
        for read in (lambda: q_laplace(grid, t, eps), lambda: q_laplace_series(grid, t, eps),
                     lambda: KernelSamples(grid).origin(t, 0)):
            with pytest.raises(type(err)) as got:
                read()
            assert str(got.value) == str(err)
        return None
    origin = (0.0,) * grid.d
    assert [m for m, _, _ in _kernel_terms(_kernel_vector(grid, t), 0)[0]] == kept, t
    w, floor = q_laplace(grid, t, eps)
    assert abs(w - want.evaluate(0.0, origin)) <= floor, t
    assert KernelSamples(grid).origin(t, 0) == (w, floor)
    assert q_laplace_series(grid, t, eps).evaluate(0.0, origin) == w
    return kept


@pytest.mark.parametrize("name", BAND_GRIDS)
def test_a_raised_value_above_the_scan_stop_is_summed(band_grids, name):
    """The upward scan stops where the rise bound proves that no higher
    term passes the drop rule.  Raise the value at an index between that
    stop and m_max - 3 by q^200, or by the least power that puts its term
    over the drop threshold: the rise bound of the raised grid lets the
    scan reach it, and the sums still equal the direct sum, which keeps
    the term raised the least."""
    grid = band_grids[name]
    raised = 0
    for eps, t in _band_cases(grid)[4:]:
        vec = _kernel_vector(grid, t)
        (_, top, _), sizes = _full_scan_terms(vec, 0)
        stop = _scan_stop(vec, 0, sizes)
        if stop is None or stop + 1 >= grid.m_max - 3:
            continue
        m = (stop + grid.m_max - 3) // 2
        drop = top + math.log(1e-16) / math.log(grid.q)
        _assert_equals_the_direct_sum(_boosted(grid, {m: 200.0}), t, eps)
        kept = _assert_equals_the_direct_sum(_boosted(grid, {m: drop - sizes[m] + 1e-6}), t, eps)
        assert kept is None or m in kept, (name, t)
        raised += 1
    assert raised >= 4, name


def test_a_gentle_rise_above_the_scan_stop_is_summed(band_grids):
    """At a fan point whose scan stops at m with term m less than half a
    q-unit below the drop threshold, raise value m + 1 so that its term
    sits half a q-unit above term m, over the threshold.  The sums keep
    term m + 1 and equal the direct sum; a rule that allowed the rise
    bound two q-units more would stop at m and drop it."""
    found = 0
    for name in BAND_GRIDS:
        grid = band_grids[name]
        lnq = math.log(grid.q)
        for eps, t in _band_cases(grid)[4:]:
            vec = _kernel_vector(grid, t)
            (_, top, _), sizes = _full_scan_terms(vec, 0)
            m = _scan_stop(vec, 0, sizes)
            drop = top + math.log(1e-16) / lnq
            if m is None or not drop - 0.45 < sizes[m] < drop - 0.05:
                continue
            raised = _boosted(grid, {m + 1: sizes[m] + 0.5 - sizes[m + 1]})
            assert m + 1 in _assert_equals_the_direct_sum(raised, t, eps), (name, t)
            vec = _kernel_vector(raised, t)
            assert _scan_stop(vec, 0, _full_scan_terms(vec, 0)[1], slack=2.0) == m, (name, t)
            found += 1
    assert found >= 5


def _kernel_points(grid, residual_points):
    """(t, k) for every point of the lattice fans at epsilon 0.3 and 0.15
    where below the disjointness threshold, and (t, 0) for each residual
    point."""
    points = [(t, 0) for t in residual_points]
    for eps in (0.3, 0.15):
        geom = SpiralGeometry(grid.lam, eps, grid.q)
        if eps < geom.disjointness_threshold():
            points += [(base, k) for _, base, k in lattice_fan(geom)]
    return points


def _scan_outcome(read, vec, k):
    try:
        return read(vec, k)
    except (GridTooShortError, OverflowError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("name", BAND_GRIDS + ["benchmark euler", "benchmark readme-d1",
                                               "benchmark mixed-d2"])
def test_kernel_terms_equal_the_full_scan(band_grids, name):
    """_kernel_terms equals the full scan bit for bit (terms, top, rtol,
    or the error) at every point of the lattice fans and at the residual
    points: the shifted residual samples of a benchmark report, or the
    band cases and the points q^j t, j = 0, 1, 2, of an 8-ray residual fan
    on a band grid.  The scan stops early at most of them."""
    if name.startswith("benchmark"):
        text = {"euler": EULER_TEXT, "readme-d1": EX2_TEXT,
                "mixed-d2": MIXED_D2_TEXT}[name.split()[1]]
        run = Run(text, Options())
        grid, q = run.grid, run.grid.q
        shifts = {term.j for term in run.equation.terms}
        residual = [s.t * q ** j for s in run.residuals.samples for j in shifts]
    else:
        grid, q = band_grids[name], band_grids[name].q
        fan = sample_fan(SpiralGeometry(grid.lam, 0.1, q), 8,
                         (0.05 * abs(grid.lam), 0.1 * abs(grid.lam)))
        residual = [t for _, t in _band_cases(grid)] + [t * q ** j for t in fan for j in range(3)]
    points, stops = _kernel_points(grid, residual), 0
    for t, k in points:
        vec = _kernel_vector(grid, t)
        want = _scan_outcome(lambda v, s: _full_scan_terms(v, s)[0], vec, k)
        assert _scan_outcome(_kernel_terms, vec, k) == want, (name, t, k)
        if isinstance(want[0], list):
            stops += _scan_stop(vec, k, _full_scan_terms(vec, k)[1]) is not None
    assert 2 * stops > len(points), name


def _per_point_fan(geom):
    """lattice_fan with the zone test at every point t = t_c / q^k."""
    q, r_max = geom.q, 0.1 * abs(geom.lam)
    s = max(1, math.ceil((ASYMPTOTIC_RADII - 1) * math.log(q) / math.log(ASYMPTOTIC_SPAN)))
    fan = []
    for i in range(ASYMPTOTIC_RAYS):
        ang = cmath.phase(geom.lam) + 2.0 * math.pi * (i + 0.5) / ASYMPTOTIC_RAYS
        for j in range(ASYMPTOTIC_RADII - 1, -1, -1):
            base = cmath.rect(r_max * q ** (-(j % s) / s), ang)
            t = base / q ** (j // s)
            if zone_membership(geom, t).outside:
                fan.append((t, base, j // s))
    return fan


def test_lattice_fan_places_each_class_as_each_of_its_points(monkeypatch):
    """|1 + lambda q^m / (t_c / q^k)| = |1 + lambda q^(m+k) / t_c|, so the
    zone test of a class base places every point of its class: the fan
    equals the per-point reference over q, lambda and epsilon near and
    well below the disjointness threshold, with one zone test per (ray,
    class).  Near the threshold the disks take whole classes."""
    counted = []

    def counting_zone(geom, t):
        counted.append(t)
        return zone_membership(geom, t)
    dropped = 0
    for q in (1.05, 1.2, 1.5, 2.0, 3.0, 10.0, 1e3):
        s = max(1, math.ceil((ASYMPTOTIC_RADII - 1) * math.log(q) / math.log(ASYMPTOTIC_SPAN)))
        for lam in (1.0, cmath.exp(0.5j), 3j):
            for share in (0.9, 0.45):
                geom = SpiralGeometry(lam, share * (q - 1.0) / (q + 1.0), q)
                want = _per_point_fan(geom)
                counted.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(qsum.qlaplace, "zone_membership", counting_zone)
                    assert lattice_fan(geom) == want, (q, lam, share)
                assert len(counted) == ASYMPTOTIC_RAYS * min(s, ASYMPTOTIC_RADII)
                dropped += ASYMPTOTIC_RAYS * ASYMPTOTIC_RADII - len(want)
    assert dropped > 0


@pytest.mark.parametrize("name", BAND_GRIDS)
def test_kernel_sum_error_is_below_its_floor(band_grids, name):
    """W(t, 0) against the same grid values summed at 60 digits: the
    difference stays below the rounding floor q_laplace returns, at
    points near a disk (ratio 3e-4) and on the sample fans.  The
    direct-sum theta this replaced misses the floor by factors up to 1.9
    on the q = 2 grids and 209 at q = 1.5; at q = 3 it stays within.
    The same holds for W(t_c / q^k, 0) read from t_c's kernel vector
    (origin(t_c, k)) at every point of the lattice fans at epsilon 0.3
    and 0.15 where below the disjointness threshold, and that read and
    q_laplace at t_c / q^k differ by at most the sum of their floors."""
    mp = pytest.importorskip("mpmath")
    grid = band_grids[name]
    q, origin = mp.mpf(grid.q), (0, (0,) * grid.d)
    values = {}

    def value(m):
        if m not in values:
            v = grid.values[m]
            values[m] = mp.mpc(v.series.coeffs.get(origin, 0j)) * q ** v.qexp
        return values[m]
    kernel, shifted = KernelSamples(grid), {}
    for eps in (0.3, 0.15):
        if eps < SpiralGeometry(grid.lam, eps, grid.q).disjointness_threshold():
            for point in lattice_fan(SpiralGeometry(grid.lam, eps, grid.q)):
                shifted.setdefault(point, eps)
    assert shifted
    with mp.workdps(60):
        for eps, t in _band_cases(grid):
            w, floor = q_laplace(grid, t, eps)
            assert abs(mp.mpc(w) - _mp_kernel_sum(mp, grid, t, value)) <= floor, (name, eps, t)
        for (t, base, k), eps in shifted.items():
            assert t == base / grid.q ** k
            w, floor = kernel.origin(base, k)
            assert abs(mp.mpc(w) - _mp_kernel_sum(mp, grid, t, value)) <= floor, (name, t, k)
            direct, direct_floor = q_laplace(grid, t, eps)
            assert abs(w - direct) <= floor + direct_floor, (name, t, k)


@pytest.mark.parametrize("name", BAND_GRIDS)
def test_w_at_the_origin_is_the_kernel_series_at_the_origin(band_grids, name):
    grid = band_grids[name]
    origin = (0.0,) * grid.d
    for eps, t in _band_cases(grid):
        assert q_laplace(grid, t, eps)[0] == q_laplace_series(grid, t, eps).evaluate(0.0, origin)
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
            with pytest.raises(GridTooShortError) as at_origin:
                q_laplace(grid, t, 0.3)
            assert str(at_origin.value) == str(want.value)
            kinds.add(" ".join(str(want.value).split()[:3]))
    # both ends, the decay test and the tail estimate, and a grid of two points
    assert kinds == {"kernel terms not", "upper tail estimate", "lower tail estimate",
                     "grid too short"}, kinds


def test_resummed_value_beyond_double_range_raises(euler_grid):
    from qsum.qborel import ScaledSeries, SpiralGrid
    g = euler_grid
    values = {m: ScaledSeries(g.values[m].series, g.values[m].qexp + 1100.0)
              for m in range(g.m_min, g.m_max + 1)}
    raised = SpiralGrid(g.lam, g.q, g.m_min, g.m_max, g.seed_top, values, g.lead_roots,
                        g.R1, g.d)
    for resum in (q_laplace, q_laplace_series):
        with pytest.raises(OverflowError) as err:
            resum(raised, 0.05, 0.3)
        assert str(err.value) == "resummed value magnitude q^1098.3 exceeds double range"


ON_DEMAND_POINTS = [0.3, 0.01 + 0.002j, 1e-4j, 2e-6, 3 + 1j]
ON_DEMAND_QS = [1.2, 1.5, 3.0, 10.0]


def _kernel_outcome(grid, t, eps):
    """q_laplace's (W, floor), or its error's type and text."""
    from qsum.errors import QsumError
    try:
        return q_laplace(grid, t, eps)
    except QsumError as err:
        return type(err).__name__, str(err)


@pytest.fixture(scope="module")
def on_demand_runs():
    """(name, q) -> two Runs of one benchmark equation at base q: the
    grid of the first sums its low indices on demand, the second's is
    read at every index before any kernel sum."""
    from qsum.pipeline import Options, Run
    from conftest import EULER_TEXT, EX2_TEXT, MIXED_D2_TEXT
    texts = {"euler": EULER_TEXT, "readme-d1": EX2_TEXT, "mixed-d2": MIXED_D2_TEXT}
    runs = {}
    for name, text in texts.items():
        for q in [2.0] + ON_DEMAND_QS:
            text_q = text.replace("q=2;", "q=%r;" % q)
            opt = Options(epsilon=0.5 * (q - 1.0) / (q + 1.0))
            lazy, eager = Run(text_q, opt), Run(text_q, opt)
            grid = eager.grid
            read = [grid.values[m] for m in range(grid.m_min, grid.m_max + 1)]
            assert len(read) == len(grid.values)
            runs[name, q] = lazy, eager
    return runs


@pytest.mark.parametrize("name", ["euler", "readme-d1", "mixed-d2"])
def test_on_demand_grid_sums_match_the_eager_sums(on_demand_runs, name):
    """W and its floor, or the kernel sum's error, are bit-identical on a
    grid that sums its low indices on demand and on one whose every index
    was read first: the walk down stops only where the drop rule would
    drop every lower term.  The points span |t| from 2e-6 to 3."""
    cases = [(2.0, t) for t in ON_DEMAND_POINTS] + [(q, 0.01 + 0.002j) for q in ON_DEMAND_QS]
    for q, t in cases:
        lazy, eager = (run.grid for run in on_demand_runs[name, q])
        eps = 0.5 * (q - 1.0) / (q + 1.0)
        # the eager grid's values in a plain dict carry no size bounds, so
        # its kernel sums size every index, as a grid summed eagerly did
        plain = SpiralGrid(eager.lam, eager.q, eager.m_min, eager.m_max, eager.seed_top,
                           {m: eager.values[m] for m in range(eager.m_min, eager.m_max + 1)},
                           eager.lead_roots, eager.R1, eager.d)
        want = _kernel_outcome(plain, t, eps)
        assert _kernel_outcome(lazy, t, eps) == want, (name, q, t)
        assert _kernel_outcome(eager, t, eps) == want, (name, q, t)
    lazy = on_demand_runs[name, 2.0][0].grid
    assert len(lazy.values) < lazy.m_max - lazy.m_min + 1


@pytest.mark.parametrize("name", ["euler", "readme-d1", "mixed-d2"])
def test_seed_size_bounds_hold_the_summed_sizes(on_demand_runs, name):
    """The premise of the walk's stop rule: at every index summed on
    demand, the size bound is at least the log size of the summed
    value, and it is inf at every other index."""
    for q in [2.0] + ON_DEMAND_QS:
        grid = on_demand_runs[name, q][1].grid
        low = grid.values.low
        assert low.start == grid.m_min and low.stop <= grid.seed_top + 1
        for m in range(grid.m_min, grid.m_max + 1):
            if m in low:
                assert grid.size_bounds[m] >= grid.logq_sizes[m], (name, q, m)
            else:
                assert grid.size_bounds[m] == math.inf, (name, q, m)


def test_default_readme_report_sums_only_the_indices_it_keeps_or_checks():
    """A default README d=1 report sums the three lowest grid indices
    for the lower tail check and no index from there up to -20."""
    from qsum.pipeline import Options, Run
    from conftest import EX2_TEXT
    run = Run(EX2_TEXT, Options())
    run.report()
    grid = run.grid
    summed = set(grid.values)
    assert {grid.m_min, grid.m_min + 1, grid.m_min + 2} <= summed
    assert not summed & set(range(grid.m_min + 3, -20))


@pytest.mark.parametrize("name, text", [
    ("euler", "lower tail estimate 1.62e-03 exceeds 1e-12 of the partial sum"),
    ("mixed-d2", "lower tail estimate 2.56e-04 exceeds 1e-12 of the partial sum")])
def test_grid_too_short_at_q_near_one(name, text):
    """At q = 1.05 the fixed EXTRA_LOW still leaves the grid short; the
    report fails as before, with the same lower tail estimate."""
    from qsum.errors import GridTooShortError
    from qsum.pipeline import Options, run_report
    from conftest import EULER_TEXT, MIXED_D2_TEXT
    eq = {"euler": EULER_TEXT, "mixed-d2": MIXED_D2_TEXT}[name].replace("q=2;", "q=1.05;")
    with pytest.raises(GridTooShortError) as err:
        run_report(eq, Options(epsilon=0.5 * 0.05 / 2.05))
    assert str(err.value) == text
