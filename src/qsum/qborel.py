"""Formal q-Borel transform, the transformed functional equation, and
analytic continuation of its solution along the geometric grid lambda*q^m.

The transform divides the n-th coefficient by q^{n(n-1)/2}, so the scaled
coefficients of the formal solution *are* the Borel coefficients.  Each
monomial t^p of a coefficient of S^j turns into the rule

    t^p S^j X   ->   xi^p q^{-p(p-1)/2} u(q^{j-p} xi)

so the transformed equation relates u on the grid with maximal shift
q^{m0}.  Solving for the newest grid value and marching upward realizes
the analytic extension constructively; all arithmetic is carried in
mantissa * q^exponent form because the values grow like q^{m^2/2}.
"""

import cmath
import math
from collections import defaultdict
from functools import cached_property
from typing import NamedTuple

from .errors import (EffectivelySingularError, GridTooShortError,
                     RadiusTooSmallError, SingularDirectionError,
                     UnsupportedEquationError)
from .formal import gevrey_fit
from .growth import fit_envelope
from .newton import SINGULAR_RAY_TOL, durand_kerner, ray_clearance
from .series import Columns, TruncatedSeries, divide

SEED_TAIL_RTOL = 1e-14
# the seed window stays inside this fraction of the Borel radius estimate
SEED_RADIUS_FRACTION = 0.5
# grid indices below the seed window, summed on first read for the kernel tails
EXTRA_LOW = 60
LEAD_SINGULAR_TOL = 1e-10
# exponent gaps beyond this (in units of log2) cannot influence a double
_ALIGN_BITS = 1100.0


class BorelFunction(NamedTuple):
    """Coefficients of the Borel transform; identical to the scaled
    formal coefficients, plus a convergence-radius estimate in xi."""
    q: float
    coeffs: tuple
    radius_est: float
    R1: float
    d: int


def borel_transform(sol):
    """Borel coefficients u_k = X_k / q^{k(k-1)/2} with a ratio-test
    radius exp(-log h) from the Gevrey fit; infinite when every u_k with
    k >= 1 is zero."""
    fit = gevrey_fit(sol)
    radius = math.exp(-fit.logH) if any(g is not None for g in fit.diag) else math.inf
    return BorelFunction(sol.q, sol.scaled, radius, sol.R1, sol.d)


class BorelTerm(NamedTuple):
    s: int              # shift exponent: the term references u(q^s xi)
    p: int              # xi-power
    alpha: tuple
    coeffz: TruncatedSeries
    scale_qexp: float   # the factor q^{-p(p-1)/2}, kept as an exponent


class BorelEquation(NamedTuple):
    q: float
    m0: int
    d: int
    terms: tuple        # every transformed term, including the leading ones
    lead: TruncatedSeries   # L(xi, z): all shift-m0 contributions, xi in the t-slot
    rhs_slices: tuple   # (n, z-series F_n); the transform of F is applied lazily
    reach: int          # maximal backward reach m0 - min(s) of the step relation
    Kz: int


def borel_transformed_equation(eq, m0):
    """Transform each coefficient monomial by the shift rule above.

    Consistency of the order floors is asserted: the maximal shift must be
    exactly m0 and carried only by z-derivative-free terms."""
    d = eq.d
    terms = []
    lead_coeffs = {}
    smax = None
    for term in eq.terms:
        for p, zpart in term.coeff.t_slices():
            s = term.j - p
            smax = s if smax is None else max(smax, s)
            if s > m0:
                raise UnsupportedEquationError(
                    "shift %d exceeds m0=%d at (j=%d, p=%d); order floors violated" % (s, m0, term.j, p))
            if s == m0:
                if sum(term.alpha) != 0:
                    raise UnsupportedEquationError(
                        "leading shift carries a z-derivative (j=%d, alpha=%s)" % (term.j, list(term.alpha)))
                for (_, beta), c in zpart.coeffs.items():
                    key = (p, beta)
                    lead_coeffs[key] = lead_coeffs.get(key, 0j) + c * eq.q ** (-p * (p - 1) / 2.0)
            terms.append(BorelTerm(s, p, term.alpha, zpart, -p * (p - 1) / 2.0))
    if smax != m0:
        raise UnsupportedEquationError("maximal shift %s differs from m0=%d" % (smax, m0))
    deg = eq.max_coeff_t_degree()
    lead = TruncatedSeries(d, max(deg + 1, 1), eq.Kz, lead_coeffs)
    return BorelEquation(eq.q, m0, d, tuple(terms), lead, tuple(eq.rhs.t_slices()),
                         reach=m0 - min(t.s for t in terms), Kz=eq.Kz)


def lead_roots(beq):
    """Roots in xi of the leading symbol at z = 0."""
    zero_beta = (0,) * beq.d
    return durand_kerner([beq.lead.get(i, zero_beta) for i in range(beq.lead.Kt)])


class ScaledSeries(NamedTuple):
    """z-series mantissa with a base-q exponent; value = series * q**qexp."""
    series: TruncatedSeries
    qexp: float


def _normalize(q, series, qexp):
    peak = series.norm_max()
    if peak == 0.0:
        return ScaledSeries(series, 0.0)
    shift = math.floor(math.log(peak) / math.log(q))
    if shift:
        series = series * (q ** float(-shift))
    return ScaledSeries(series, qexp + shift)


def _scaled_sum(q, parts):
    """Align a list of ScaledSeries on the largest exponent and add them."""
    parts = [p for p in parts if not p.series.is_zero()]
    if not parts:
        return None
    top = max(p.qexp for p in parts)
    log2q = math.log2(q)
    acc = TruncatedSeries.combination([(p.series, q ** (p.qexp - top)) for p in parts
                                       if (p.qexp - top) * log2q >= -_ALIGN_BITS])
    return _normalize(q, acc, top)


class _OnDemand(dict):
    """A dict that fills a missing key on first read with fill(key); fill
    raises KeyError for a key it cannot fill."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class SeedValues(_OnDemand):
    """Grid values m -> ScaledSeries whose indices in `low` are direct
    sums of the Borel series, each summed on first read; the march fills
    the others.  bounds[m] is log_q of sum_k ||u_k|| |xi|^k at an index in
    `low`, at least log_q of the value's largest coefficient magnitude,
    and inf at every other index."""

    def __init__(self, fill, low, bound):
        super().__init__(fill)
        self.low = low
        self.bounds = _OnDemand(lambda m: bound(m) if m in low else math.inf)

    def __missing__(self, m):
        if m not in self.low:
            raise KeyError(m)
        return super().__missing__(m)


class SpiralGrid:
    """Continued Borel values on the grid lambda * q^m: values maps m to
    a ScaledSeries, seed_top is the largest index filled by direct
    summation, lead_roots the roots in xi of the leading symbol at z = 0
    and R1 the polydisc radius of the sup norms.  A plain class, not a
    named tuple: its cached properties need an instance dict."""

    def __init__(self, lam, q, m_min, m_max, seed_top, values, lead_roots, R1, d):
        self.lam, self.q, self.m_min, self.m_max, self.seed_top = lam, q, m_min, m_max, seed_top
        self.values, self.lead_roots, self.R1, self.d = values, lead_roots, R1, d

    @property
    def theta_budget(self):
        """Angular clearance of lambda from the lead-symbol rays."""
        return ray_clearance(self.lam, [cmath.phase(r) for r in self.lead_roots])

    @cached_property
    def size_bounds(self):
        """m -> an upper bound on logq_sizes[m]: SeedValues.bounds, or inf
        at every index of a grid built otherwise."""
        values = self.values
        return values.bounds if isinstance(values, SeedValues) else defaultdict(lambda: math.inf)

    @cached_property
    def norms_logq(self):
        """log_q of each value's sup norm on |z| <= R1, -inf for zero;
        filled per index on first read."""
        values, lnq, R1 = self.values, math.log(self.q), self.R1
        return _OnDemand(lambda m: math.log(s) / lnq + v.qexp
                         if (s := (v := values[m]).series.sup_norm(R1)) != 0.0 else -math.inf)

    @cached_property
    def logq_sizes(self):
        """log_q of each value's largest coefficient magnitude, -inf for
        zero: the kernel sums size their terms from it.  Filled per index
        on first read."""
        values, lnq = self.values, math.log(self.q)
        return _OnDemand(lambda m: v.qexp + math.log(n) / lnq
                         if (n := (v := values[m]).series.norm_max()) > 0 else -math.inf)

    @cached_property
    def rise_bounds(self):
        """At m - m_min, m_min <= m < m_max: the largest g[m'] over m <= m'
        < m_max, g[m'] = L[m'+1] - L[m'] - m', L = logq_sizes.  A kernel
        term's log_q size is L[m] - n(n+1)/2 - n frac - log_q|theta(y)|, n
        = m + k0, so its step to m + 1 is g[m] - (k0 + 1 + frac): where
        this bound is at most k0 + frac, every term above m is at least a
        q-unit below the one before.  g is -inf where L[m'+1] is -inf and
        inf where only L[m'] is; the bound is inf below max(seed_top,
        m_min), so it sums no seed value the march did not.  A tuple: it
        holds no grid."""
        sizes, lo, hi = self.logq_sizes, self.m_min, self.m_max
        floor = max(self.seed_top, lo)
        bound, bounds = -math.inf, []
        for m in range(hi - 1, floor - 1, -1):
            if sizes[m + 1] > -math.inf:
                bound = max(bound, sizes[m + 1] - sizes[m] - m
                            if sizes[m] > -math.inf else math.inf)
            bounds.append(bound)
        return (math.inf,) * (floor - lo) + tuple(reversed(bounds))


def continue_spiral(beq, u, lam, m_max):
    """March the Borel-transformed equation along lambda * q^m.

    A seed window of direct summations of the convergent series (tail
    below SEED_TAIL_RTOL) anchors the march; above it, each step isolates
    the newest grid value through the leading symbol.  Each direct sum
    runs on first read (SeedValues): the march reads the seed window, and
    EXTRA_LOW, the floor of the direct sums, extends the grid that many
    indices below it so that downstream kernel sums have their decaying
    tail available; they sum only the indices they keep or check.
    """
    q = beq.q
    lam = complex(lam)
    if lam == 0:
        raise SingularDirectionError("direction lambda must be nonzero")

    roots = lead_roots(beq)
    if ray_clearance(lam, [cmath.phase(r) for r in roots]) <= SINGULAR_RAY_TOL:
        raise SingularDirectionError(
            "lambda at argument %.6f lies on a singular ray" % cmath.phase(lam))

    radius = u.radius_est
    if radius <= 0:
        raise RadiusTooSmallError("no positive convergence radius estimate")

    # High z-degree coefficients of u_k grow combinatorially with k, so the
    # seed sums keep every coefficient's own window (series arithmetic takes
    # the smallest): the grid window is what the shortest one supports.
    norms = [v.norm_max() for v in u.coeffs]

    def seed_terms(m):
        """The powers xi^k at xi = lam q^m, the relative tail estimate of
        the sum of u_k xi^k there and the sum of the ||u_k|| |xi^k|.

        The tail ratio is taken from the observed decay of the last term
        norms rather than from the fitted radius, which can overshoot."""
        xi = lam * q ** float(m)
        powers = []
        power = 1.0 + 0j
        peak = 0.0
        term_norms = []
        for norm in norms:
            powers.append(power)
            term_norms.append(norm * abs(power))
            peak = max(peak, term_norms[-1])
            power *= xi
        ratios = [term_norms[k] / term_norms[k - 1]
                  for k in range(max(1, len(term_norms) - 5), len(term_norms))
                  if term_norms[k - 1] > 0.0]
        r_fit = abs(xi) / radius if math.isfinite(radius) else 0.0
        r = max([r_fit] + ratios)
        if r >= 0.95:
            tail = math.inf
        else:
            tail = max(term_norms[-3:]) * r / (1.0 - r)
        rel = tail / peak if peak > 0 else 0.0
        return powers, rel, sum(term_norms)

    # top of the seed window: inside SEED_RADIUS_FRACTION of the radius and
    # with the direct-summation tail below tolerance; |xi| is also capped
    # absolutely so the power ladder in seed_terms stays in double range
    if math.isfinite(radius):
        top = math.floor(math.log(min(SEED_RADIUS_FRACTION * radius, 1e3) / abs(lam), q))
    else:
        top = math.floor(math.log(1.0 / abs(lam), q)) if abs(lam) > 1 else 0
    top = min(top, m_max)
    for _ in range(400):
        _, rel, _ = seed_terms(top)
        if rel <= SEED_TAIL_RTOL:
            break
        top -= 1
    else:
        raise RadiusTooSmallError(
            "direct summation cannot reach relative tail %.1e inside the disk" % SEED_TAIL_RTOL)

    # the march reads the `window` indices below it; every seed index,
    # down to EXTRA_LOW below those, is summed on first read
    window = max(beq.reach, 1)
    m_min = top - window + 1 - EXTRA_LOW

    columns = Columns(u.coeffs)

    def seed_value(m):
        powers, _, _ = seed_terms(m)
        return _normalize(q, columns.combination(powers), 0.0)

    def seed_bound(m):
        total = seed_terms(m)[2]
        return math.log(total) / math.log(q) if total > 0 else -math.inf

    values = SeedValues(seed_value, range(m_min, top + 1), seed_bound)

    lead_slices = beq.lead.t_slices()
    lead_deg = max((i for i, _ in lead_slices), default=0)
    lead_norm = max((s.norm_max() for _, s in lead_slices), default=0.0)
    lower_terms = [t for t in beq.terms if t.s < beq.m0]

    for M in range(top + 1, m_max + 1):
        e = M - beq.m0                       # xi = lam * q^e at this step
        # leading symbol L(xi, z) as a scaled z-series
        lead_parts = [ScaledSeries(s * (lam ** i), float(i * e)) for i, s in lead_slices]
        lead_val = _scaled_sum(q, lead_parts)
        lead0 = abs(lead_val.series.constant_term()) if lead_val else 0.0
        guard_logq = (math.log(LEAD_SINGULAR_TOL * max(lead_norm, 1e-300)) / math.log(q)
                      + lead_deg * max(0.0, math.log(abs(lam)) / math.log(q) + e))
        if lead_val is None or (math.log(max(lead0, 1e-300)) / math.log(q) + lead_val.qexp) < guard_logq:
            raise EffectivelySingularError(M)
        # right-hand side g(xi, z) = sum_n F_n q^{n e - n(n-1)/2} lam^n z-part
        parts = [ScaledSeries(fz * (lam ** n), n * e - n * (n - 1) / 2.0)
                 for n, fz in beq.rhs_slices]
        # backward references u*(q^s xi) = value at index M - (m0 - s)
        for t in lower_terms:
            back = values[M - (beq.m0 - t.s)]
            mat = t.coeffz * (lam ** t.p) * back.series.dz_multi(t.alpha)
            parts.append(ScaledSeries(-mat, t.p * e + t.scale_qexp + back.qexp))
        total = _scaled_sum(q, parts)
        if total is None:
            values[M] = ScaledSeries(TruncatedSeries.zero(beq.d, 1, beq.Kz), 0.0)
            continue
        quotient = divide(total.series, lead_val.series)
        values[M] = _normalize(q, quotient, total.qexp - lead_val.qexp)

    return SpiralGrid(lam, q, m_min, m_max, top, values, roots, u.R1, beq.d)


def fit_spiral_bound(grid):
    """Envelope (C, H) = (A, H) with ||u*(lam q^m)|| <= C H^m q^{m^2/2}
    for m >= 0, ||.|| the sup norm on |z| <= grid.R1.

    H is clamped below at 1 (the bound only weakens as H grows, and the
    quadratic factor already dominates decaying grids); C is then the
    smallest consistent constant.  The diagnostic sequence must not trend
    upward (the envelope is `settled`) or the bound shape itself is wrong."""
    if grid.m_min > 0 or grid.m_max < 0:
        raise GridTooShortError("bound fit needs the grid to cover m = 0..m_max")
    lnq = math.log(grid.q)
    norms = grid.norms_logq
    logs = [norms[m] * lnq if math.isfinite(norms[m]) else None for m in range(grid.m_max + 1)]
    return fit_envelope(logs, [m * m / 2.0 * lnq for m in range(grid.m_max + 1)], 0.0)
