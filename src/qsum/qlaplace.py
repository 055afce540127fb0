"""Jacobi theta kernel, spiral-disk geometry, the discrete q-Laplace
resummation, and the asymptotic-expansion verifier.

The kernel convention is

    theta_q(x) = sum_{n in Z} q^{-n(n-1)/2} x^n,

an entire function on C* with functional equation theta(qx) = qx theta(x)
and zero set exactly -q^Z.  The resummed solution is the kernel-weighted
sum over the continuation grid

    W(t, z) = sum_{m in Z} u*(lambda q^m, z) / theta_q(lambda q^m / t),

whose poles lie on the spiral -lambda q^Z; the monomial inversion
identity sum_m (lambda q^m)^n / theta_q(lambda q^m / t) = q^{n(n-1)/2} t^n
is the internal witness that this convention inverts the Borel transform.
"""

import cmath
import math
from dataclasses import dataclass, field

from .errors import GridTooShortError, PoleProximityError, UsageError
from .growth import last_third, ls_slope
from .scaled import QScaled
from .series import TruncatedSeries, residual_norms

THETA_TERM_CUTOFF = 1e-17
KERNEL_TAIL_RTOL = 1e-12
KERNEL_DROP_RTOL = 1e-16
# kernel terms estimated this far below the drop rule are still summed
# directly, so no error in the estimate can move a term across the rule
KERNEL_BAND_MARGIN = 1e-4
# disks within this factor of epsilon count as near the boundary
ZONE_GUARD = 1.1
# asymptotic_check fails a fit whose log rho_N rises faster than this per
# order over the last third of orders, or whose order-1 remainder grows
# more slowly than this power of |t|
RHO_TREND_MAX = 0.1
ORDER1_SLOPE_MIN = 0.5


def theta(x, q):
    """theta_q(x) by symmetric truncation around the peak term.

    Terms fall off like q^{-(n-n*)^2/2}; summation stops once they drop
    below 1e-17 of the peak, so the dropped tail is below 1e-15 of the
    peak term.  Near the zeros -q^Z the result is small through
    cancellation and its *relative* accuracy degrades accordingly."""
    x = complex(x)
    if x == 0:
        raise ValueError("theta is undefined at x = 0")
    return _theta_polar(q, math.log(abs(x)) / math.log(q), cmath.phase(x))


def _theta_polar(q, logq_mag, phase):
    n0 = round(logq_mag + 0.5)
    lnq = math.log(q)
    exp, rect, cutoff = math.exp, cmath.rect, THETA_TERM_CUTOFF
    c0 = n0 * (n0 - 1)
    # term n is rect(exp(rel * lnq), n * phase), with rel its log-q
    # magnitude relative to the n0 term; rel = 0 at n0
    acc = rect(1.0, n0 * phase)
    peak = abs(acc)
    for step in (1, -1):
        n = n0 + step
        while True:
            rel = (n - n0) * logq_mag - (n * (n - 1) - c0) / 2.0
            piece = rect(exp(rel * lnq), n * phase)
            acc += piece
            mag = abs(piece)
            if mag > peak:
                peak = mag
            if mag < cutoff * peak:
                break
            n += step
            if abs(n - n0) > 400:
                raise ArithmeticError("theta summation failed to localize")
    return QScaled(q, acc, n0 * logq_mag - n0 * (n0 - 1) / 2.0)


@dataclass(frozen=True)
class SpiralGeometry:
    """The excluded spiral -lambda q^Z and its epsilon-thickened disks
    {t != 0 : |1 + lambda q^m / t| <= epsilon}."""
    lam: complex
    epsilon: float
    q: float

    def disjointness_threshold(self):
        """Below (q-1)/(q+1) the component disks are pairwise disjoint."""
        return (self.q - 1.0) / (self.q + 1.0)

    def require_disjoint(self):
        """Raise UsageError unless epsilon is below the disjointness threshold."""
        if self.epsilon >= self.disjointness_threshold():
            raise UsageError("epsilon %.3g not below the disk-disjointness threshold %.3g"
                             % (self.epsilon, self.disjointness_threshold()))


@dataclass(frozen=True)
class ZoneResult:
    kind: str            # "outside" | "inside" | "near-boundary"
    m: int = None        # witnessing index for inside/near-boundary
    min_ratio: float = math.inf   # smallest |1 + lambda q^m / t| over scanned m

    @property
    def outside(self):
        return self.kind == "outside"


def zone_membership(geom, t):
    """Classify t against the epsilon-disks; only finitely many m can
    contain t, namely those with q^m within (1 +- eps) * |t/lambda|.
    Within ZONE_GUARD * eps of a disk, t is near the boundary."""
    t = complex(t)
    if t == 0:
        raise UsageError("t must be nonzero")
    if not cmath.isfinite(t):
        raise UsageError("t must be finite (got %r)" % t)
    q, lam, eps = geom.q, geom.lam, geom.epsilon
    center = math.log(abs(t) / abs(lam)) / math.log(q)
    lo = math.floor(center + math.log1p(-min(eps * ZONE_GUARD, 0.9)) / math.log(q)) - 1
    hi = math.ceil(center + math.log1p(eps * ZONE_GUARD) / math.log(q)) + 1
    best, best_m = math.inf, None
    for m in range(lo, hi + 1):
        ratio = abs(1.0 + lam * q ** float(m) / t)
        if ratio < best:
            best, best_m = ratio, m
    if best <= eps:
        return ZoneResult("inside", best_m, best)
    if best <= eps * ZONE_GUARD:
        return ZoneResult("near-boundary", best_m, best)
    return ZoneResult("outside", None, best)


def q_laplace_series(grid, t, epsilon=0.05):
    """Kernel-weighted sum of the grid values as a z-series.

    Both tails must decay below KERNEL_TAIL_RTOL of the partial sum inside the
    available index range, or the grid is reported too short.  Terms below
    KERNEL_DROP_RTOL relative are dropped so negligible far indices cannot
    shrink the z-window of the result.

    Theta is summed directly only where a term can survive that rule: one
    direct theta at m = 0 and the functional equation
    theta(q^m x) = q^{m(m+1)/2} x^m theta(x) estimate every term's size,
    and the direct sums cover the indices estimated within
    KERNEL_DROP_RTOL * KERNEL_BAND_MARGIN of the largest, plus the three
    at each end that the tail checks read.  The estimates choose indices
    and are never summed, so the result is the all-indices direct sum."""
    terms, top = _kernel_terms(grid, t, epsilon)
    if not terms:
        return TruncatedSeries.zero(grid.d, 1, grid.values[grid.m_max].series.Kz)
    acc = TruncatedSeries.combination([(grid.values[m].series * inv, scale)
                                       for m, inv, scale in terms])
    return acc * complex(grid.q ** top)


def q_laplace(grid, t, epsilon=0.05):
    """Resummed value W(t, 0) at the origin in z.

    The terms are those of q_laplace_series; only the constant coefficient
    of each is summed, with the same floating-point operations, so the
    value is that series' at z = 0."""
    terms, top = _kernel_terms(grid, t, epsilon)
    origin = (0, (0,) * grid.d)
    acc = None
    for m, inv, scale in terms:
        piece = grid.values[m].series.coeffs.get(origin, 0j) * inv * scale
        acc = piece if acc is None else acc + piece
    return 0j if acc is None else acc * complex(grid.q ** top)


def _kernel_terms(grid, t, epsilon):
    """The terms of W(t, .) that survive the drop rule, in index order,
    as (m, inv, scale) with W(t, .) = q^top * sum values[m].series * inv
    * scale: inv is the inverse theta mantissa and scale the complex
    q^(e - top), with e the term's exponent.  A term's size is its largest
    coefficient magnitude, that of the series product values[m].series *
    inv.  Returns (terms, top); the terms are empty when every grid value
    in the band is zero."""
    q, lam = grid.q, grid.lam
    t = complex(t)
    zone = zone_membership(SpiralGeometry(lam, epsilon, q), t)
    if not zone.outside:
        raise PoleProximityError(
            "t = %s is %s the excluded spiral disks (m=%s, ratio %.3g)"
            % (t, zone.kind, zone.m, zone.min_ratio))
    lnq = math.log(q)
    base_logq = math.log(abs(lam) / abs(t)) / lnq
    phase = cmath.phase(lam / t)
    th0 = _theta_polar(q, base_logq, phase)
    theta0_logq = th0.logq_abs()
    norms = grid.value_norms_logq
    indices = range(grid.m_min, grid.m_max + 1)
    sizes = [norms[m] - (theta0_logq + m * (m + 1) / 2.0 + m * base_logq) for m in indices]
    cut = max(sizes) + math.log(KERNEL_DROP_RTOL * KERNEL_BAND_MARGIN) / lnq
    ends = set(indices[:3]) | set(indices[-3:])
    # (m, inv, e, log_q size) per directly summed index
    band = []
    for m, size in zip(indices, sizes):
        if size < cut and m not in ends:
            continue
        th = th0 if m == 0 else _theta_polar(q, base_logq + m, phase)
        val = grid.values[m]
        # the theta mantissa lies in [1, q), so its inverse is finite and nonzero
        inv = complex(1.0 / th.mantissa)
        e = val.qexp - th.qexp
        coeffs = val.series.coeffs.values()
        lm = e + math.log(max(abs(c * inv) for c in coeffs)) / lnq if coeffs else -math.inf
        band.append((m, inv, e, lm))

    finite = [lm for *_, lm in band if math.isfinite(lm)]
    if not finite:
        return [], None
    top = max(finite)

    def check_tail(side, name):
        tail = [lm for *_, lm in side[-3:]]
        if len(tail) < 3:
            raise GridTooShortError("grid too short on the %s side" % name)
        if not (tail[-1] < tail[-2] < tail[-3]):
            raise GridTooShortError(
                "kernel terms not yet decaying at the %s end of the grid" % name,
                needed=side[-1][0])
        ratio = math.exp((tail[-1] - tail[-2]) * lnq)
        est = math.exp((tail[-1] - top) * lnq) * ratio / (1.0 - ratio)
        if est > KERNEL_TAIL_RTOL:
            raise GridTooShortError(
                "%s tail estimate %.2e exceeds %.0e of the partial sum" % (name, est, KERNEL_TAIL_RTOL),
                needed=side[-1][0])

    check_tail(band, "upper")
    check_tail(band[::-1], "lower")
    if abs(top * lnq) >= 690.0:
        raise OverflowError("resummed value magnitude q^%.1f exceeds double range" % top)
    drop = top + math.log(KERNEL_DROP_RTOL) / lnq
    # complex scales: a series times a scalar multiplies each coefficient
    # by complex(scale), so both sums do the same operations
    return [(m, inv, complex(q ** (e - top))) for m, inv, e, lm in band
            if math.isfinite(lm) and lm >= drop], top


@dataclass
class SampleResidual:
    t: complex
    absolute: float
    relative: float


@dataclass
class KernelResidualReport:
    samples: list            # SampleResidual per accepted sample
    max_absolute: float
    max_relative: float
    rejected: list           # (t, reason) for zone-rejected samples

    def __str__(self):
        return "max |residual| %.3e (relative %.3e) over %d samples" % (
            self.max_absolute, self.max_relative, len(self.samples))


def residual_check(eq, grid, samples, epsilon=0.05):
    """Evaluate sum a_{j,alpha}(t,z) Dz^alpha W(q^j t, z) - F(t,z) at each
    sample, with W and its z-derivatives taken from the kernel sum."""
    q = eq.q
    results = []
    rejected = []
    worst_abs = worst_rel = 0.0
    geom = SpiralGeometry(grid.lam, epsilon, q)
    shifts = sorted({term.j for term in eq.terms})
    for t in samples:
        t = complex(t)
        bad = None
        for j in shifts:
            zone = zone_membership(geom, t * q ** j)
            if not zone.outside:
                bad = "shift q^%d t lies %s the excluded disks" % (j, zone.kind)
                break
        if bad:
            rejected.append((t, bad))
            continue
        w = {j: q_laplace_series(grid, t * q ** j, epsilon) for j in shifts}
        res, rel = residual_norms((term.coeff.eval_t(t) * w[term.j].dz_multi(term.alpha)
                                   for term in eq.terms), eq.rhs.eval_t(t))
        results.append(SampleResidual(t, res, rel))
        worst_abs = max(worst_abs, res)
        worst_rel = max(worst_rel, rel)
    return KernelResidualReport(results, worst_abs, worst_rel, rejected)


@dataclass
class ResumReport:
    """Remainder table of the resummed solution against the formal series."""
    epsilon: float
    samples: list            # complex sample points
    Wvals: list              # W(t, 0) per sample
    EN: list                 # EN[N][i] = |W(t_i) - partial_N(t_i)|
    rho: list                # rho[N] = max_i normalized remainder^(1/N), N >= 1
    M: float
    H: float
    verdict: str             # "pass" | "fail"
    reasons: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict == "pass"


def sample_fan(geom, rays, radii):
    """Points at each of the given radii on `rays` rays spaced evenly off
    lambda's, kept where they lie outside the excluded disks."""
    base = cmath.phase(geom.lam)
    points = []
    for i in range(rays):
        ang = base + 2.0 * math.pi * (i + 0.5) / rays
        for r in radii:
            t = cmath.rect(r, ang)
            if zone_membership(geom, t).outside:
                points.append(t)
    return points


def asymptotic_check(sol, grid, epsilon, n_max, rays=8, radii=12, w_fn=None):
    """Fit (M, H) with  |W - partial_N| <= (M H^N / eps) q^{N(N-1)/2} |t|^N
    over a ray/radius sample fan, and judge the expansion:

      * the normalized remainders rho_N must not grow monotonically across
        the last third of orders, and
      * the order-1 remainder must scale (at least linearly) with |t|,
        which is what separates a true asymptotic solution from one with
        a constant offset.
    """
    q = grid.q
    lam = grid.lam
    geom = SpiralGeometry(lam, epsilon, q)
    geom.require_disjoint()
    if n_max > sol.count:
        raise UsageError("remainder depth %d exceeds the computed formal order %d"
                         % (n_max, sol.count))
    # `radii` radii spaced geometrically from r_max / 20 to r_max
    r_max = 0.1 * abs(lam)
    r_lo = r_max / 20.0
    points = sample_fan(geom, rays, [r_lo * (r_max / r_lo) ** (k / (radii - 1.0)) if radii > 1
                                     else r_max for k in range(radii)])
    wvals = [w_fn(t) if w_fn else q_laplace(grid, t, epsilon) for t in points]

    lnq = math.log(q)
    # scaled partial sums of the formal series at each sample
    EN = []
    partials = [QScaled.zero(q) for _ in points]
    wscaled = [QScaled(q, w) for w in wvals]
    for N in range(0, n_max + 1):
        row = [abs(w - p) for w, p in zip(wscaled, partials)]
        EN.append(row)
        vN = sol.scaled[N].evaluate(0.0, (0.0,) * grid.d)
        for i, t in enumerate(points):
            partials[i] = partials[i] + QScaled(q, vN * t ** N, N * (N - 1) / 2.0)
    # normalized remainders and the envelope fit
    rho = [None] * (n_max + 1)
    log_r = {}
    for N in range(0, n_max + 1):
        for i, t in enumerate(points):
            if EN[N][i] == 0.0:
                continue
            log_r[(N, i)] = (math.log(EN[N][i]) + math.log(epsilon)
                             - N * (N - 1) / 2.0 * lnq - N * math.log(abs(t)))
        if N >= 1:
            vals = [log_r[(N, i)] for i in range(len(points)) if (N, i) in log_r]
            rho[N] = math.exp(max(vals) / N) if vals else None

    reasons = []
    usable = [N for N in range(1, n_max + 1) if rho[N] is not None]
    if not usable:
        logH = 0.0
    else:
        logH = max(0.0, max(math.log(rho[N]) for N in last_third(usable, n_max)))
        # rho_N settling toward a finite limit is the healthy pattern; only a
        # sustained upward trend means no envelope of this shape exists
        tail = last_third(usable, n_max, fallback=False)
        if len(tail) >= 3:
            slope = ls_slope([(float(N), math.log(rho[N])) for N in tail])
            if slope > RHO_TREND_MAX:
                reasons.append("normalized remainders trend upward (%.3g/order); no finite envelope" % slope)
    logM = max((lr - N * logH for (N, _), lr in log_r.items()), default=-math.inf)
    M = math.exp(logM) if math.isfinite(logM) else 0.0

    slope = _order1_slope(points, EN[1] if n_max >= 1 else None)
    if slope is not None and slope < ORDER1_SLOPE_MIN:
        reasons.append("order-1 remainder does not scale with |t| (slope %.2f)" % slope)

    verdict = "pass" if not reasons else "fail"
    return ResumReport(epsilon, points, wvals, EN, rho, M, math.exp(logH), verdict, reasons)


def _order1_slope(points, e1):
    if e1 is None:
        return None
    data = [(math.log(abs(t)), math.log(e)) for t, e in zip(points, e1) if e > 0]
    if len(data) < 4:
        return None
    return ls_slope(data, degenerate=None)
