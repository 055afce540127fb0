"""Numeric checkers for the equivalence between super-exponentially
decaying Taylor coefficients and theta-type entire growth.

Coefficient side:  |a_n| <= A H^n / q^{n(n-1)/2}.
Function side:     |f(t)| <= M exp( (log|t|)^2 / (2 log q) + alpha log|t| ).

Both directions are certified on finite data only: envelopes are fitted
and then verified pointwise, with the sampled range reported.  The
coefficient-side fit, `fit_envelope`, also serves the formal solution's
|X_n| <= A h^n q^{n(n-1)/2} and the Borel grid's C H^m q^{m^2/2}."""

import math
from dataclasses import dataclass

from .errors import FitError

# largest upward slope per order of an envelope diagnostic that still
# counts as settled, in every envelope fit
TREND_TOL = 0.05
# log-margin by which a sampled value may exceed its growth envelope
GROWTH_SLACK = 1e-9


@dataclass
class Envelope:
    """Fitted envelope exp(logs[n]) <= A H^n exp(quad[n]) of a sequence
    of log magnitudes, with its diagnostic and the diagnostic's trend."""
    logA: float         # -inf when every magnitude is zero
    logH: float
    diag: list          # (logs[n] - quad[n]) / n for n >= 1, None at n = 0 and for zeros
    slope: float        # least-squares slope of diag over the last half of the orders

    @property
    def A(self):
        return math.exp(self.logA)

    @property
    def H(self):
        return math.exp(self.logH)

    @property
    def settled(self):
        """Whether the diagnostic does not trend upward; when it does, no
        finite H bounds the data in this shape."""
        return self.slope <= TREND_TOL

    def holds(self, logs, quad):
        """Pointwise check of exp(logs[n]) <= A H^n exp(quad[n]) on every
        n with logs[n] not None, to GROWTH_SLACK in log."""
        return all(lg is None or lg <= self.logA + n * self.logH + quad[n] + GROWTH_SLACK
                   for n, lg in enumerate(logs))


def fit_envelope(logs, quad, floor):
    """Envelope (A, H) for exp(logs[n]) <= A H^n exp(quad[n]), n = 0..len(logs)-1.

    logs[n] is a log magnitude, None for a zero; quad[n] the quadratic
    log factor of the bound shape.  log H is the largest diagnostic
    (logs[n] - quad[n]) / n over the last third of the orders, where the
    pre-asymptotic wobble has died out, clamped below at `floor`; it is 0
    when no n >= 1 is nonzero.  A is then the smallest constant making
    the bound hold at every order, 0 for all-zero data."""
    n_top = len(logs) - 1
    diag = [None if n == 0 or lg is None else (lg - quad[n]) / n for n, lg in enumerate(logs)]
    usable = [n for n in range(1, n_top + 1) if diag[n] is not None]
    logH = max(floor, max(diag[n] for n in last_third(usable, n_top))) if usable else 0.0
    logA = max((lg - n * logH - quad[n] for n, lg in enumerate(logs) if lg is not None),
               default=-math.inf)
    half = [n for n in usable if n >= max(1, n_top // 2)]
    slope = ls_slope([(n, diag[n]) for n in half]) if len(half) >= 3 else 0.0
    return Envelope(logA, logH, diag, slope)


def fit_coeff_bound(coeffs, q):
    """Envelope (A, H) for |a_n| <= A H^n q^{-n(n-1)/2}.

    H is the largest (|a_n| q^{n(n-1)/2})^{1/n} over the stabilized window;
    when that sequence keeps climbing there is no finite H and the fit is
    not settled (the data is not Taylor data of a theta-type entire
    function)."""
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) < 3:
        raise ValueError("need at least 3 coefficients")
    lnq = math.log(q)
    return fit_envelope([math.log(abs(c)) if c != 0 else None for c in coeffs],
                        [-(n * (n - 1) / 2.0 * lnq) for n in range(len(coeffs))], -math.inf)


@dataclass
class GrowthBound:
    M: float
    alpha: float


@dataclass
class GrowthReport:
    passed: bool
    worst_margin: float     # max over samples of log|f| - log(bound); <= 0 passes
    count: int

    def __str__(self):
        return "%s (worst log-margin %.3e over %d samples)" % (
            "pass" if self.passed else "fail", self.worst_margin, self.count)


def bound_log(q, M, alpha, t_abs):
    """log of the growth envelope M exp((log|t|)^2/(2 log q) + alpha log|t|) at |t| = t_abs."""
    lt = math.log(t_abs)
    return math.log(M) + lt * lt / (2.0 * math.log(q)) + alpha * lt


def check_growth_bound(evaluator, q, M, alpha, samples):
    """Pointwise check of |f(t)| <= M exp((log|t|)^2/(2 log q) + alpha log|t|)."""
    worst = -math.inf
    for t in samples:
        t = complex(t)
        if t == 0:
            raise ValueError("samples must be nonzero")
        v = abs(evaluator(t))
        margin = (math.log(v) if v > 0 else -math.inf) - bound_log(q, M, alpha, abs(t))
        worst = max(worst, margin)
    return GrowthReport(worst <= GROWTH_SLACK, worst, len(samples))


def fit_growth(evaluator, q, samples):
    """Least-squares (log M, alpha) against log|f| - (log|t|)^2/(2 log q),
    then M inflated so the envelope holds on every sample."""
    pts = []
    for t in samples:
        t = complex(t)
        v = abs(evaluator(t))
        if v > 0:
            pts.append((math.log(abs(t)), math.log(v) - math.log(abs(t)) ** 2 / (2.0 * math.log(q))))
    if len(pts) < 2:
        raise FitError("need at least 2 samples with f(t) != 0, got %d" % len(pts))
    xs = [x for x, _ in pts]
    if max(xs) - min(xs) < 1e-6:
        raise FitError("degenerate sample spread in log|t|")
    alpha = ls_slope(pts)
    logM = max(y - alpha * x for x, y in pts)
    try:
        return GrowthBound(math.exp(logM), alpha)
    except OverflowError:
        raise FitError("growth constant M = e^%.6g exceeds double range" % logM) from None


def ls_slope(points, degenerate=0.0):
    """Least-squares slope of (x, y) points; `degenerate` when every x is equal."""
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        return degenerate
    return (n * sxy - sx * sy) / denom


def last_third(indices, n, fallback=True):
    """The indices from ceil(2n/3) on: the last third of the orders 1..n,
    where the pre-asymptotic wobble of an envelope fit has died out.  When
    none fall there, the last third of `indices` itself, unless `fallback`
    is false."""
    start = max(1, (2 * n + 2) // 3)
    window = [k for k in indices if k >= start]
    if window or not fallback:
        return window
    return indices[-max(1, len(indices) // 3):]


def truncated_entire_eval(coeffs):
    """Plain evaluator for the truncated sum of a_n t^n.

    For coefficient data within a fit_coeff_bound envelope the dropped tail is
    superexponentially small on any fixed annulus once enough terms are
    kept; callers choose the truncation depth accordingly."""
    coeffs = [complex(c) for c in coeffs]

    def ev(t):
        acc = 0j
        p = 1.0 + 0j
        t = complex(t)
        for a in coeffs:
            acc += a * p
            p *= t
        return acc

    return ev
