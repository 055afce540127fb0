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
from dataclasses import dataclass
from functools import cached_property

from .errors import (EffectivelySingularError, GridTooShortError,
                     RadiusTooSmallError, SingularDirectionError,
                     UnsupportedEquationError)
from .growth import TREND_TOL, last_third, ls_slope
from .newton import SINGULAR_RAY_TOL, durand_kerner, ray_clearance
from .scaled import _ALIGN_BITS
from .series import TruncatedSeries, divide

SEED_TAIL_RTOL = 1e-14
LEAD_SINGULAR_TOL = 1e-10


@dataclass(frozen=True)
class BorelFunction:
    """Coefficients of the Borel transform; identical to the scaled
    formal coefficients, plus a convergence-radius estimate in xi."""
    q: float
    coeffs: tuple
    radius_est: float
    R1: float
    d: int


def borel_transform(sol):
    """Borel coefficients u_k = X_k / q^{k(k-1)/2} with a ratio-test radius."""
    rate = sol.gevrey_rate()
    radius = math.inf if rate is None else math.exp(-rate)
    return BorelFunction(sol.q, sol.scaled, radius, sol.R1, sol.d)


@dataclass(frozen=True)
class BorelTerm:
    s: int              # shift exponent: the term references u(q^s xi)
    p: int              # xi-power
    alpha: tuple
    coeffz: TruncatedSeries
    scale_qexp: float   # the factor q^{-p(p-1)/2}, kept as an exponent


@dataclass(frozen=True)
class BorelEquation:
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
    coeffs = [beq.lead.get(i, zero_beta) for i in range(beq.lead.Kt)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return []
    return durand_kerner(coeffs)


@dataclass(frozen=True)
class ScaledSeries:
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


@dataclass
class SpiralGrid:
    """Continued Borel values on the grid lambda * q^m."""
    lam: complex
    q: float
    m_min: int
    m_max: int
    seed_top: int           # largest index filled by direct summation
    values: dict            # m -> ScaledSeries
    lead_roots: list        # roots in xi of the leading symbol at z = 0
    R1: float               # polydisc radius of the sup norms
    d: int

    @property
    def theta_budget(self):
        """Angular clearance of lambda from the lead-symbol rays."""
        return ray_clearance(self.lam, [cmath.phase(r) for r in self.lead_roots])

    @cached_property
    def norms_logq(self):
        """log_q of each value's sup norm on |z| <= R1, -inf for zero."""
        lnq = math.log(self.q)
        return {m: math.log(s) / lnq + v.qexp if (s := v.series.sup_norm(self.R1)) != 0.0
                else -math.inf
                for m, v in self.values.items()}

    @cached_property
    def value_norms_logq(self):
        """log_q of each value's largest coefficient magnitude, -inf for
        zero; computed once per grid for the kernel sums."""
        lnq = math.log(self.q)
        return {m: v.qexp + math.log(n) / lnq if (n := v.series.norm_max()) > 0 else -math.inf
                for m, v in self.values.items()}


def continue_spiral(beq, u, lam, m_max, seed_radius_fraction=0.5, extra_low=60):
    """March the Borel-transformed equation along lambda * q^m.

    A seed window of direct summations of the convergent series (tail
    below SEED_TAIL_RTOL) anchors the march; above it, each step isolates
    the newest grid value through the leading symbol.  The grid also
    extends `extra_low` indices below the seed window by direct summation
    so that downstream kernel sums have their decaying tail available.
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
        """The powers xi^k at xi = lam q^m and the relative tail estimate
        of the sum of u_k xi^k there.

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
        return powers, rel

    # top of the seed window: inside the disk by the requested fraction and
    # with the direct-summation tail below tolerance; |xi| is also capped
    # absolutely so the power ladder in seed_terms stays in double range
    if math.isfinite(radius):
        top = math.floor(math.log(min(seed_radius_fraction * radius, 1e3) / abs(lam), q))
    else:
        top = math.floor(math.log(1.0 / abs(lam), q)) if abs(lam) > 1 else 0
    top = min(top, m_max)
    for _ in range(400):
        _, rel = seed_terms(top)
        if rel <= SEED_TAIL_RTOL:
            break
        top -= 1
    else:
        raise RadiusTooSmallError(
            "direct summation cannot reach relative tail %.1e inside the disk" % SEED_TAIL_RTOL)

    window = max(beq.reach, 1)
    m_min = top - window + 1 - extra_low
    values = {}
    for m in range(m_min, top + 1):
        powers, _ = seed_terms(m)
        v = TruncatedSeries.combination(zip(u.coeffs, powers))
        values[m] = _normalize(q, v, 0.0)

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


@dataclass
class SpiralBoundFit:
    C: float
    H: float
    diag: list          # (log||u*_m|| - (m^2/2) log q)/m for m >= 1, None when zero
    trend_slope: float  # least-squares slope of the diagnostic over the last half
    bounded: bool

    def __str__(self):
        return "C=%.6g H=%.6g (diagnostic %s, trend %.3g/step)" % (
            self.C, self.H, "bounded" if self.bounded else "UNBOUNDED", self.trend_slope)


def fit_spiral_bound(grid):
    """Envelope (C, H) with ||u*(lam q^m)|| <= C H^m q^{m^2/2} for m >= 0,
    ||.|| the sup norm on |z| <= grid.R1.

    H is clamped below at 1 (the bound only weakens as H grows, and the
    quadratic factor already dominates decaying grids); C is then the
    smallest consistent constant.  The diagnostic sequence must not trend
    upward or the bound shape itself is wrong."""
    if grid.m_min > 0 or grid.m_max < 0:
        raise GridTooShortError("bound fit needs the grid to cover m = 0..m_max")
    lnq = math.log(grid.q)
    lognorm = {m: lg * lnq if math.isfinite(lg) else None
               for m, lg in grid.norms_logq.items() if m >= 0}
    diag = [None] * (grid.m_max + 1)
    for m in range(1, grid.m_max + 1):
        if lognorm[m] is not None:
            diag[m] = (lognorm[m] - m * m / 2.0 * lnq) / m
    usable = [m for m in range(1, grid.m_max + 1) if diag[m] is not None]
    if not usable:
        if all(v is None for v in lognorm.values()):
            return SpiralBoundFit(0.0, 1.0, diag, 0.0, True)
        logH = 0.0
    else:
        logH = max(0.0, max(diag[m] for m in last_third(usable, grid.m_max)))
    logC = max(lognorm[m] - m * logH - m * m / 2.0 * lnq
               for m in range(0, grid.m_max + 1) if lognorm[m] is not None)
    half = [m for m in usable if m >= max(1, grid.m_max // 2)]
    slope = ls_slope([(m, diag[m]) for m in half]) if len(half) >= 3 else 0.0
    return SpiralBoundFit(math.exp(logC), math.exp(logH), diag, slope, slope <= TREND_TOL)
