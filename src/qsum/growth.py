"""Envelope fits of super-exponentially growing or decaying sequences.

One fit, `fit_envelope`, bounds log magnitudes by A H^n exp(quad[n]) for
a given quadratic log factor.  It serves the formal solution's
|X_n| <= A h^n q^{n(n-1)/2}, the Borel grid's C H^m q^{m^2/2} and the
asymptotic check's M H^N on the normalized remainders.  The envelope is
fitted and then verified pointwise on the sampled orders only."""

import math
from typing import NamedTuple

# largest upward slope per order of an envelope diagnostic that still
# counts as settled, in every envelope fit
TREND_TOL = 0.05
# log-margin by which a sampled value may exceed its growth envelope
GROWTH_SLACK = 1e-9


class Envelope(NamedTuple):
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
