"""Jacobi theta kernel, spiral-disk geometry, the discrete q-Laplace
resummation, and the asymptotic-expansion verifier.

The kernel convention is

    theta_q(x) = sum_{n in Z} q^{-n(n-1)/2} x^n,

an entire function on C* with functional equation theta(qx) = qx theta(x)
and zero set exactly -q^Z.  It is evaluated from the Jacobi triple
product, with p = 1/q,

    theta_q(x) = prod_{n >= 1} (1 - p^n)(1 + x p^(n-1))(1 + p^n / x),

at a reduced argument y = x / q^k with 1 <= |y| < q, and
theta(q^k y) = q^{k(k+1)/2} y^k theta(y) in closed form.  The resummed
solution is the kernel-weighted sum over the continuation grid

    W(t, z) = sum_{m in Z} u*(lambda q^m, z) / theta_q(lambda q^m / t),

whose poles lie on the spiral -lambda q^Z; the monomial inversion
identity sum_m (lambda q^m)^n / theta_q(lambda q^m / t) = q^{n(n-1)/2} t^n
is the internal witness that this convention inverts the Borel transform;
the tests sum it with q_laplace itself, over a grid of monomials xi^n.
Every theta(lambda q^m / (t / q^k)), over m and k, shares one reduced
argument, so the kernel sums at every t / q^k take one product.  W(t, 0)
comes with the rounding floor of its sum, and the asymptotic verifier
reads only remainders above it.
"""

import cmath
import math
import sys
from functools import cache, lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import GridTooShortError, PoleProximityError, UsageError
from .growth import fit_envelope, last_third, ls_slope
from .scaled import QScaled
from .series import TruncatedSeries, residual_norms

KERNEL_TAIL_RTOL = 1e-12
KERNEL_DROP_RTOL = 1e-16
# The rounding floor of a kernel sum.  Each rounded operation errs by at
# most one unit, ROUNDING_UNIT, relative to its result (a complex product
# by at most sqrt(5) < 3).  One kept term at z = 0 is c * inv * scale, and
# its roundings, to first order, are:
#   * the product theta(y): per step, the sums 1 - p^n, 1 + p^n y and
#     1 + p^n / y, one real and two complex products
#     (PRODUCT_STEP_UNITS); and the error of each a in a factor 1 + a,
#     which 1 + a scales by |a| / |1 + a| (FACTOR_UNITS: one for q**-n,
#     one for its product with y or 1/y, three for y = rect(q**frac,
#     phase) and three more for 1/y).  Summed over the factors that scale
#     is at most 2q / min(|1 + y|, |1 + y/q|) + 3q / (q - 1)^2, as
#     |y p^n| <= p^(n-1) and |p^n / y| <= p^n;
#   * the closed form: k frac + log_q|theta(y)| and k arg y + arg theta(y)
#     round by a unit of their sizes, which moves the term by ln q resp.
#     one times that: at most 2 (pi + ln q) (|k| + 1) + 2 |ln|theta(y)||;
#   * the scale power q^(e - top) of a term above the drop rule: e, the
#     difference of the value's and theta's integer exponents, is exact,
#     and top's own rounding is common to q^top and q^(e - top), so the
#     subtraction rounds by a unit of |e - top| and moves the term by ln q
#     times that.  The term's closed-form log_q size s lies within
#     log_q(1 / KERNEL_DROP_RTOL) below top, and e - top = s - top + r -
#     log_q|mantissa|, with r in [0, 1) and the grid's mantissas of
#     largest magnitude in [1, q), so ln q |e - top| <= ln(1 /
#     KERNEL_DROP_RTOL) + ln q; one unit more for the power;
#   * TERM_UNITS for the rest: the logs and phase of theta(y), the
#     exponent power and rect of the inverse mantissa, the products c *
#     inv * scale, the final power q^top and its product;
# and the sum of n terms adds at most n - 1 units of the sum of their
# magnitudes.  Rounding in the reduction of lambda / t to (k0, frac, arg
# y) is common to every term: it moves t by a few units, not the sum.
ROUNDING_UNIT = 2.0 ** -53
PRODUCT_STEP_UNITS = 10
FACTOR_UNITS = 8
TERM_UNITS = 16
# disks within this factor of epsilon count as near the boundary
ZONE_GUARD = 1.1
# asymptotic_check fails a fit whose log rho_N rises faster than this per
# order over the last third of orders, or whose order-1 remainder grows
# more slowly than this power of |t|
RHO_TREND_MAX = 0.1
ORDER1_SLOPE_MIN = 0.5
# asymptotic_check samples this many rays, radii per ray and radius span (lattice_fan)
ASYMPTOTIC_RAYS = 8
ASYMPTOTIC_RADII = 12
ASYMPTOTIC_SPAN = 20.0
# residual_check passes when no sample's absolute residual exceeds this
RESIDUAL_MAX_ABS = 1e-5


def theta(x, q):
    """theta_q(x) as a QScaled, from the Jacobi triple product.

    x = q^k y with 1 <= |y| < q, and theta(q^k y) = q^{k(k+1)/2} y^k
    theta(y) with theta(y) from _theta_product; the kernel sums use the
    same product and closed form.  The reduction divides x by q**k, so at
    x = -q**k it gives y = -1 exactly and the mantissa is 0.
    No terms cancel: near a zero the relative error is a few units of
    2^-53 over x's relative distance from it, the condition number of
    theta there.  A base q outside (1, inf) and an x that is zero or not
    finite raise ValueError."""
    x = complex(x)
    if not 1.0 < q < math.inf:
        raise ValueError("theta needs a base q in (1, inf), got %r" % q)
    if x == 0 or not cmath.isfinite(x):
        raise ValueError("theta is undefined at x = %r" % x)
    lnq = math.log(q)
    k = math.floor(math.log(abs(x)) / lnq)
    # the log may round across an integer; step k until 1 <= |x / q**k| < q
    while abs(x) >= _power(q, k + 1):
        k += 1
    while abs(x) < _power(q, k):
        k -= 1
    # a q**k below the normal range has lost digits, or is zero: divide
    # by two normal powers there
    s = q ** k
    y = x / s if s >= sys.float_info.min else x / q ** (k // 2) / q ** (k - k // 2)
    th = _theta_product(y, q)[0]
    if th == 0:
        return QScaled(q, 0j, 0)
    r, angle, qexp = _shifted(k, math.log(abs(y)) / lnq, cmath.phase(y),
                              math.log(abs(th)) / lnq, cmath.phase(th))
    return QScaled(q, cmath.rect(q ** r, angle), qexp)


def _power(q, k):
    """q**k, or inf where it leaves double range."""
    try:
        return q ** k
    except OverflowError:
        return math.inf


def _theta_product(y, q):
    """theta_q(y) for 1 <= |y| < q, and the number of product steps:

        theta_q(y) = (1 + y) prod_{n >= 1} (1 - p^n)(1 + y p^n)(1 + p^n / y),

    p = 1/q, with the factors p^n and 1 - p^n of _theta_factors."""
    inv_y = 1.0 / y
    acc = 1.0 + y
    factors = _theta_factors(q)
    for pn, one_less in factors:
        acc *= one_less * (1.0 + pn * y) * (1.0 + pn * inv_y)
    return acc, len(factors)


@lru_cache(maxsize=16)
def _theta_factors(q):
    """The pairs (p^n, 1 - p^n), p = 1/q, of _theta_product's steps n = 1,
    2, ...  After step n the factors left differ from 1 by at most
    (2 + q) p^{n+1} / (1 - p) = (2 + q) p^n / (q - 1) in all; the product
    stops once that is below 2^-54, half a unit in the last place of 1.
    They depend on q alone, and a run has one q: a small cache keeps them
    for the q values in use."""
    tail = (2.0 + q) / (q - 1.0)
    factors = []
    n = 0
    while True:
        n += 1
        pn = q ** -n
        factors.append((pn, 1.0 - pn))
        if pn * tail < 0.5 * ROUNDING_UNIT:
            return tuple(factors)


def _shifted(k, frac, phase, log_th, arg_th):
    """theta(q^k y) as (r, angle, exponent), the value q^r e^{i angle}
    q^exponent with 0 <= r < 1, given log_q|y| = frac, arg y = phase, and
    log_q|theta(y)| and arg theta(y).  The exponent is the integer
    k(k+1)/2 plus floor(k frac + log_q|theta(y)|), so no rounding of the
    quadratic part reaches r."""
    g = k * frac + log_th
    shift = math.floor(g)
    return g - shift, k * phase + arg_th, k * (k + 1) // 2 + shift


class SpiralGeometry(NamedTuple):
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


# a zone kind other than "outside", as the messages place a point
PLACEMENT = {"inside": "inside", "near-boundary": "near the boundary of"}


class ZoneResult(NamedTuple):
    kind: str            # "outside" | "inside" | "near-boundary"
    m: int               # witnessing index for inside/near-boundary, else None
    min_ratio: float     # smallest |1 + lambda q^m / t| over scanned m

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
    # the same 1000 scale as QScaled.to_complex: beyond it q^m and theta's
    # argument lambda q^m / t leave double range
    if abs(math.log2(abs(t)) - math.log2(abs(lam))) > 1000.0:
        raise UsageError("t = %r is out of double range against lambda (|log2 t/lambda| > 1000)"
                         % t)
    center = math.log(abs(t) / abs(lam)) / math.log(q)
    lo = math.floor(center + math.log1p(-min(eps * ZONE_GUARD, 0.9)) / math.log(q)) - 1
    hi = math.ceil(center + math.log1p(eps * ZONE_GUARD) / math.log(q)) + 1
    best, best_m = math.inf, None
    for m in range(lo, hi + 1):
        try:
            ratio = abs(1.0 + lam * q ** float(m) / t)
        except OverflowError:  # |lambda q^m / t| > 2^24 > 1 > |lambda q^lo / t|
            continue
        if ratio < best:
            best, best_m = ratio, m
    if best <= eps:
        return ZoneResult("inside", best_m, best)
    if best <= eps * ZONE_GUARD:
        return ZoneResult("near-boundary", best_m, best)
    return ZoneResult("outside", None, best)


def q_laplace_series(grid, t, epsilon=0.05):
    """W(t, .) as a z-series at a t off the epsilon-disks (KernelSamples)."""
    return KernelSamples(grid).series(_outside_disks(grid, t, epsilon))


def q_laplace(grid, t, epsilon=0.05):
    """(W(t, 0), floor) at a t off the epsilon-disks (KernelSamples)."""
    return KernelSamples(grid).origin(_outside_disks(grid, t, epsilon), 0)


def _outside_disks(grid, t, epsilon):
    """complex(t); PoleProximityError where t lies inside or near an epsilon-disk."""
    t = complex(t)
    zone = zone_membership(SpiralGeometry(grid.lam, epsilon, grid.q), t)
    if not zone.outside:
        raise PoleProximityError(
            "t = %s lies %s the excluded spiral disks (m=%s, ratio %.3g)"
            % (t, PLACEMENT[zone.kind], zone.m, zone.min_ratio))
    return t


class KernelSamples:
    """W at the sample points of one grid, from one kernel vector per point
    t (_kernel_vector), each sum done once (functools.cache).  series(t) is
    W(t, .) as a z-series, from a vector it does not keep; origin(t, k) is
    (W(t / q^k, 0), floor) from t's vector, kept for every shift, as
    theta(lambda q^m / (t / q^k)) = theta(lambda q^(m+k) / t):
    each term's constant coefficient summed with the operations of series,
    and the terms' magnitudes times a bound on each one's relative
    rounding error (ROUNDING_UNIT), below which a difference from W is not
    resolved.  Neither reader tests the zone (W does not depend on
    epsilon, which only places the points): callers place the points off
    the disks, as the fans and residual_check do.  On the spiral theta is
    zero and the sum raises ValueError; q_laplace and q_laplace_series
    test the zone and raise PoleProximityError."""

    def __init__(self, grid):
        self.grid = grid
        constant = (0, (0,) * grid.d)
        vector = cache(lambda t: _kernel_vector(grid, t))

        def series(t):
            kept, top, _ = _kernel_terms(_kernel_vector(grid, t), 0)
            if not kept:
                return TruncatedSeries.zero(grid.d, 1, grid.values[grid.m_max].series.Kz)
            acc = TruncatedSeries.combination_of_products((grid.values[m].series, inv, scale)
                                                          for m, inv, scale in kept)
            return acc * complex(grid.q ** top)

        def at_origin(t, k):
            kept, top, rtol = _kernel_terms(vector(t), k)
            acc, size = None, 0.0
            for m, inv, scale in kept:
                piece = grid.values[m].series.coeffs.get(constant, 0j) * inv * scale
                acc = piece if acc is None else acc + piece
                size += abs(piece)
            if acc is None:
                return 0j, 0.0
            unit = complex(grid.q ** top)
            return acc * unit, size * abs(unit) * rtol

        self.series = cache(series)
        self.origin = cache(at_origin)


def _kernel_vector(grid, t):
    """What the kernel sums at every t / q^k share: (grid, k0, frac, phase,
    log_q|theta(y)|, arg theta(y), the product's rounding units, inverses)
    with lambda / t = q^k0 y, y = q^frac e^{i phase}.  One triple product
    gives theta(y), and the functional equation every theta(lambda q^n /
    t); inverses maps a theta index n to (inverse mantissa, q-exponent),
    filled as _kernel_terms keeps the terms, for every shift."""
    q, lnq = grid.q, math.log(grid.q)
    base_logq = math.log(abs(grid.lam) / abs(t)) / lnq
    phase = cmath.phase(grid.lam / t)
    k0 = math.floor(base_logq)
    frac = base_logq - k0
    y = cmath.rect(q ** frac, phase)
    th, steps = _theta_product(y, q)
    units = (PRODUCT_STEP_UNITS * steps
             + FACTOR_UNITS * (2.0 * q / min(abs(1.0 + y), abs(1.0 + y / q))
                               + 3.0 * q / (q - 1.0) ** 2))
    # t lies off the spiral, so theta(y) is not zero
    return grid, k0, frac, phase, math.log(abs(th)) / lnq, cmath.phase(th), units, {}


def _kernel_terms(vec, k):
    """The terms of W(t / q^k, .) that survive the drop rule, from t's
    kernel vector, in index order, as (m, inv, scale) with W = q^top * sum
    values[m].series * inv * scale: inv is the inverse theta mantissa and
    scale the complex q^(e - top), e the term's exponent.  A term's log_q
    size is its value's (SpiralGrid.logq_sizes) less log_q|theta(q^n y)| =
    n(n+1)/2 + n frac + log_q|theta(y)|, n = m + k0 + k, in floats; the
    tail checks, top, the drop rule and the overflow guard read those
    sizes, and only the kept terms read a theta mantissa.  Below theta's
    vertex the sizing stops where SpiralGrid.size_bounds shows that no
    lower term passes the drop rule, so the grid never sums those values.
    Above it the sizing stops at the first m below m_max - 3 whose term
    is below the drop threshold of the largest size so far and whose
    SpiralGrid.rise_bounds entry is at most k0 + k + frac: the step from
    term m' to m' + 1 is that table's g[m'] less k0 + k + 1 + frac, so
    each term above m is at least a q-unit, far above the rounding of the
    sizes, below the one before, and none passes the drop rule or raises
    top; the upper three are sized for the tail check.  Both tails must
    decay below KERNEL_TAIL_RTOL of the partial sum inside the grid, and
    a term below KERNEL_DROP_RTOL relative, which would only shrink W's
    z-window, is dropped.  Returns (terms, top, rtol), rtol the bound on
    a term's relative rounding error that the rounding floor reads; the
    terms are empty when every grid value is zero."""
    grid, k0, frac, phase, log_th, arg_th, product_units, inverses = vec
    q, lnq, k0 = grid.q, math.log(grid.q), k0 + k
    # log_q sizes of the terms: the value's less log_q|theta(lambda q^m / t)|,
    # at the three indices at each end (the tail checks read them) and at
    # every index from theta's vertex (m + k0 = 0) or the upper three up to
    # where the scan stops
    table, bounds, rises = grid.logq_sizes, grid.size_bounds, grid.rise_bounds
    lo, hi = grid.m_min, grid.m_max
    start = max(lo, min(-k0, hi - 2))
    sizes = {m: table[m] - ((m + k0) * (m + k0 + 1) / 2.0 + (m + k0) * frac + log_th)
             for m in chain(range(lo, min(lo + 3, start)), range(max(hi - 2, lo), hi + 1))}
    top = max(sizes.values())
    gap = math.log(KERNEL_DROP_RTOL) / lnq
    # the walk up, to where no higher term can pass the drop rule
    end, stop = hi, k0 + frac
    for m in range(start, hi + 1):
        n = m + k0
        size = sizes[m] = table[m] - (n * (n + 1) / 2.0 + n * frac + log_th)
        if size > top:
            top = size
        elif size < top + gap and m < hi - 3 and rises[m - lo] <= stop:
            end = m
            break
    # below the vertex theta's size grows and the grid's size bound falls as
    # m falls: once a term's bound is a q-unit below the drop threshold, no
    # lower term can pass it, and the walk down stops before the grid sums
    # those values
    low = start
    for m in range(start - 1, lo + 2, -1):
        th = (m + k0) * (m + k0 + 1) / 2.0 + (m + k0) * frac + log_th
        if bounds[m] - th < top + gap - 1.0:
            break
        size = sizes[m] = table[m] - th
        top = max(top, size)
        low = m
    if top == -math.inf:
        return [], None, 0.0
    _check_tail([sizes[m] for m in range(max(hi - 2, lo), hi + 1)], top, lnq, "upper")
    _check_tail([sizes[m] for m in range(min(lo + 2, hi), lo - 1, -1)], top, lnq, "lower")
    if abs(top * lnq) >= 690.0:
        raise OverflowError("resummed value magnitude q^%.1f exceeds double range" % top)
    drop = top + gap
    terms = []
    # the indices that can pass, in index order: the lower tail's, then the
    # walk's and the scan's up
    for m in chain(range(lo, min(lo + 3, start)), range(low, end + 1)):
        if sizes[m] >= drop:
            inverse = inverses.get(m + k0)
            if inverse is None:
                r, angle, qexp = _shifted(m + k0, frac, phase, log_th, arg_th)
                # the inverse theta mantissa, of magnitude in (1/q, 1]; both
                # sums take (c * inv) * complex(scale) for each coefficient c
                inverse = inverses[m + k0] = cmath.rect(q ** -r, -angle), qexp
            terms.append((m, inverse[0], complex(q ** (grid.values[m].qexp - inverse[1] - top))))
    k_max = max(abs(m + k0) for m, _, _ in terms)
    units = (product_units + 2.0 * (math.pi + lnq) * (k_max + 1) + 2.0 * abs(log_th * lnq)
             + math.log(1.0 / KERNEL_DROP_RTOL) + lnq + 1.0 + TERM_UNITS + len(terms) - 1)
    return terms, top, units * ROUNDING_UNIT


def _check_tail(tail, top, lnq, name):
    """GridTooShortError unless the log_q term sizes of one end of the grid,
    the three end indices' with the outermost last, decay and their tail
    estimate is below KERNEL_TAIL_RTOL of q^top."""
    if len(tail) < 3:
        raise GridTooShortError("grid too short on the %s side" % name)
    if not (tail[-1] < tail[-2] < tail[-3]):
        raise GridTooShortError(
            "kernel terms not yet decaying at the %s end of the grid" % name)
    ratio = math.exp((tail[-1] - tail[-2]) * lnq)
    est = math.exp((tail[-1] - top) * lnq) * ratio / (1.0 - ratio)
    if est > KERNEL_TAIL_RTOL:
        raise GridTooShortError(
            "%s tail estimate %.2e exceeds %.0e of the partial sum" % (name, est, KERNEL_TAIL_RTOL))


class SampleResidual(NamedTuple):
    t: complex
    absolute: float
    relative: float


class KernelResidualReport(NamedTuple):
    samples: list            # SampleResidual per accepted sample
    max_absolute: float
    max_relative: float
    rejected: list           # (t, reason) for zone-rejected samples

    @property
    def passed(self):
        return self.max_absolute <= RESIDUAL_MAX_ABS

    def __str__(self):
        return "max |residual| %.3e (relative %.3e) over %d samples" % (
            self.max_absolute, self.max_relative, len(self.samples))


def residual_check(eq, kernel, samples, epsilon=0.05):
    """Evaluate sum a_{j,alpha}(t,z) Dz^alpha W(q^j t, z) - F(t,z) at each
    sample, with W and its z-derivatives from the KernelSamples table, which
    sums each distinct point q^j t once.  A sample with a shifted point
    inside or near the epsilon-disks is rejected."""
    q = eq.q
    results = []
    rejected = []
    worst_abs = worst_rel = 0.0
    geom = SpiralGeometry(kernel.grid.lam, epsilon, q)
    shifts = sorted({term.j for term in eq.terms})
    for t in samples:
        t = complex(t)
        for j in shifts:
            zone = zone_membership(geom, t * q ** j)
            if not zone.outside:
                rejected.append((t, "shift q^%d t lies %s the excluded disks"
                                 % (j, PLACEMENT[zone.kind])))
                break
        else:
            res, rel = residual_norms((term.coeff.eval_t(t)
                                       * kernel.series(t * q ** term.j).dz_multi(term.alpha)
                                       for term in eq.terms), eq.rhs.eval_t(t))
            results.append(SampleResidual(t, res, rel))
            worst_abs = max(worst_abs, res)
            worst_rel = max(worst_rel, rel)
    return KernelResidualReport(results, worst_abs, worst_rel, rejected)


class ResumReport(NamedTuple):
    """Remainder table of the resummed solution against the formal series."""
    epsilon: float
    samples: list            # complex sample points
    Wvals: list              # W(t, 0) per sample
    floors: list             # rounding floor of W(t, 0) per sample
    EN: list                 # EN[N][i] = |W(t_i) - partial_N(t_i)|
    rho: list                # rho[N] = max_i normalized remainder^(1/N), N >= 1
    M: float
    H: float
    verdict: str             # "pass" | "fail"
    used: int                # (N, t) pairs with E_N above the floor, which the fit reads
    dropped: int             # (N, t) pairs with E_N at or below it, or infinite
    reasons: list

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


def lattice_fan(geom):
    """The asymptotic fan on a q-lattice: on ASYMPTOTIC_RAYS rays spaced
    evenly off lambda's, the radii r_max q^(-j/s), r_max = 0.1|lambda|, j
    < ASYMPTOTIC_RADII, ray by ray in ascending order, kept where they
    lie outside the excluded disks.  s is the least integer >= 1 with
    q^((ASYMPTOTIC_RADII - 1) / s) <= ASYMPTOTIC_SPAN.  Point j is t_c /
    q^k, k = j // s, of the class base t_c = rect(r_max q^(-(j mod s)/s),
    angle), whose kernel vector serves its class, and whose zone test
    places the class: |1 + lambda q^m / (t_c / q^k)| = |1 + lambda
    q^(m+k) / t_c|, so every point of a class lies in the same disks as
    t_c.  Returns (t, t_c, k)."""
    q, r_max = geom.q, 0.1 * abs(geom.lam)
    s = max(1, math.ceil((ASYMPTOTIC_RADII - 1) * math.log(q) / math.log(ASYMPTOTIC_SPAN)))
    fan = []
    for i in range(ASYMPTOTIC_RAYS):
        ang = cmath.phase(geom.lam) + 2.0 * math.pi * (i + 0.5) / ASYMPTOTIC_RAYS
        outside = {}
        for j in range(ASYMPTOTIC_RADII - 1, -1, -1):
            base = cmath.rect(r_max * q ** (-(j % s) / s), ang)
            if j % s not in outside:
                outside[j % s] = zone_membership(geom, base).outside
            if outside[j % s]:
                fan.append((base / q ** (j // s), base, j // s))
    return fan


def remainder_row(q, values, w, t):
    """The remainders E_N = |W(t, 0) - partial_N(t)| at one point t, given
    w = W(t, 0) and values[N] = v_N(0), the formal solution's scaled
    coefficients at z = 0 (FormalSolution.origin_values).  The partial
    sums are complex floats, the N-th term v_N exp(N log t + N(N-1)/2 ln
    q), so q^{N(N-1)/2} and t^N never leave double range apart; a term
    errs by a few units of its exponent's size.  Once a term or a partial
    sum leaves double range, E_N is inf from that order on."""
    log_t, lnq = cmath.log(t), math.log(q)
    partial, row = 0j, []
    for N, vN in enumerate(values):
        row.append(abs(w - partial))
        if vN:
            try:
                partial += vN * cmath.exp(N * log_t + N * (N - 1) / 2.0 * lnq)
            except OverflowError:
                partial = math.inf
            if not cmath.isfinite(partial):
                return row + [math.inf] * (len(values) - 1 - N)
    return row


def asymptotic_check(sol, kernel, epsilon, n_max):
    """Fit (M, H) with  |W - partial_N| <= (M H^N / eps) q^{N(N-1)/2} |t|^N
    over a ray/radius sample fan, and judge the expansion:

      * the normalized remainders rho_N must not grow monotonically across
        the last third of orders, and
      * the order-1 remainder must scale (at least linearly) with |t|,
        which is what separates a true asymptotic solution from one with
        a constant offset.

    Only the pairs (N, t) whose E_N lies above the rounding floor of
    W(t, 0) are read: at or below it, E_N may be the kernel sum's rounding
    error.  An E_N outside double range (inf, see remainder_row) is not
    read either, and counts with the unresolved pairs in `dropped`.  With
    no pair resolved the verdict is a vacuous pass.

    W(t, 0) and its floor at each point t = t_c / q^k of lattice_fan are
    origin(t_c, k) of the kernel-sample table of the grid that continues
    `sol`'s Borel transform, and each call builds one remainder row per
    point of its fan.
    """
    q, lam = kernel.grid.q, kernel.grid.lam
    geom = SpiralGeometry(lam, epsilon, q)
    geom.require_disjoint()
    if n_max > sol.count:
        raise UsageError("remainder depth %d exceeds the computed formal order %d"
                         % (n_max, sol.count))
    fan = lattice_fan(geom)
    points = [t for t, _, _ in fan]
    values, picked = sol.origin_values(n_max), []
    for t, base, k in fan:
        w, floor = kernel.origin(base, k)
        picked.append((w, floor, remainder_row(q, values, w, t)))
    wvals = [w for w, _, _ in picked]
    floors = [floor for _, floor, _ in picked]
    EN = [[row[N] for _, _, row in picked] for N in range(0, n_max + 1)]
    # the resolved remainders, per order; None where E_N is at or below the
    # floor or outside double range
    resolved = [[e if floor < e < math.inf else None for e, floor in zip(EN[N], floors)]
                for N in range(0, n_max + 1)]

    lnq, log_eps = math.log(q), math.log(epsilon)
    log_r = [math.log(abs(t)) for t in points]
    # per order, the largest normalized log remainder over the resolved
    # pairs; the envelope's A is M, and its diagnostic is log rho_N
    logs = [max((math.log(e) + log_eps - N * (N - 1) / 2.0 * lnq - N * lr
                 for e, lr in zip(resolved[N], log_r) if e is not None), default=None)
            for N in range(0, n_max + 1)]
    env = fit_envelope(logs, [0.0] * (n_max + 1), 0.0)
    rho = [None if g is None else math.exp(g) for g in env.diag]

    reasons = []
    # rho_N settling toward a finite limit is the healthy pattern; only a
    # sustained upward trend means no envelope of this shape exists
    tail = last_third([N for N in range(1, n_max + 1) if rho[N] is not None], n_max, fallback=False)
    if len(tail) >= 3:
        slope = ls_slope([(float(N), env.diag[N]) for N in tail])
        if slope > RHO_TREND_MAX:
            reasons.append("normalized remainders trend upward (%.3g/order); no finite envelope" % slope)

    slope = _order1_slope(points, resolved[1] if n_max >= 1 else None)
    if slope is not None and slope < ORDER1_SLOPE_MIN:
        reasons.append("order-1 remainder does not scale with |t| (slope %.2f)" % slope)

    verdict = "pass" if not reasons else "fail"
    used = sum(e is not None for row in resolved for e in row)
    return ResumReport(epsilon, points, wvals, floors, EN, rho, env.A, env.H, verdict,
                       used, len(points) * (n_max + 1) - used, reasons)


def _order1_slope(points, e1):
    """The least-squares slope of log E_1 against log |t| over the
    resolved order-1 remainders (None where unresolved)."""
    if e1 is None:
        return None
    data = [(math.log(abs(t)), math.log(e)) for t, e in zip(points, e1) if e is not None]
    if len(data) < 4:
        return None
    return ls_slope(data, degenerate=None)
