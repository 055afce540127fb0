"""Numeric checkers for the equivalence between super-exponentially
decaying Taylor coefficients and theta-type entire growth.

Coefficient side:  |a_n| <= A H^n / q^{n(n-1)/2}.
Function side:     |f(t)| <= M exp( (log|t|)^2 / (2 log q) + alpha log|t| ).

Both directions are certified on finite data only: envelopes are fitted
and then verified pointwise, with the sampled range reported."""

import math
from dataclasses import dataclass, field

from .errors import FitError

# largest upward slope per order of an envelope diagnostic that still
# counts as settled, in every envelope fit
TREND_TOL = 0.05
# log-margin by which a sampled value may exceed its growth envelope
GROWTH_SLACK = 1e-9


@dataclass
class CoeffBound:
    A: float
    H: float
    h_seq: list = field(default_factory=list)   # per-n envelope values (None where a_n = 0)
    diverging: bool = False                      # h_seq trending up: no finite H exists

    def holds(self, coeffs, q):
        lnq = math.log(q)
        for n, a in enumerate(coeffs):
            if a == 0:
                continue
            bound = math.log(self.A) + n * math.log(self.H) - n * (n - 1) / 2.0 * lnq
            if math.log(abs(a)) > bound + GROWTH_SLACK:
                return False
        return True


def fit_coeff_bound(coeffs, q):
    """Envelope (A, H) for |a_n| <= A H^n q^{-n(n-1)/2}.

    H is the largest (|a_n| q^{n(n-1)/2})^{1/n} over the stabilized window;
    when that sequence keeps climbing there is no finite H and the fit is
    flagged as diverging (the data is not Taylor data of a theta-type
    entire function)."""
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) < 3:
        raise ValueError("need at least 3 coefficients")
    lnq = math.log(q)
    n_top = len(coeffs) - 1
    h_seq = [None] * (n_top + 1)
    for n in range(1, n_top + 1):
        if coeffs[n] != 0:
            h_seq[n] = (math.log(abs(coeffs[n])) + n * (n - 1) / 2.0 * lnq) / n
    usable = [n for n in range(1, n_top + 1) if h_seq[n] is not None]
    if not usable:
        a0 = abs(coeffs[0])
        return CoeffBound(a0, 1.0, h_seq, False)
    logH = max(h_seq[n] for n in last_third(usable, n_top))
    logA = max((math.log(abs(coeffs[n])) + n * (n - 1) / 2.0 * lnq - n * logH)
               for n in range(n_top + 1) if coeffs[n] != 0)
    half = [n for n in usable if n >= max(1, n_top // 2)]
    slope = ls_slope([(float(n), h_seq[n]) for n in half]) if len(half) >= 3 else 0.0
    return CoeffBound(math.exp(logA), math.exp(logH), h_seq, slope > TREND_TOL)


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
    return GrowthBound(math.exp(logM), alpha)


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

    For coefficient data satisfying a CoeffBound the dropped tail is
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
