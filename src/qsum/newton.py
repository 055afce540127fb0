"""t-Newton polygon of an equation, shape conditions, characteristic
polynomial and singular directions.

The polygon is the convex hull of the quadrants C(j, ord) = {x <= j,
y >= ord} over the support points (j, ord_t(a_{j,alpha})).  All hull
combinatorics run on exact integer pairs; only root finding is
floating-point.
"""

import cmath
import math
from dataclasses import dataclass, field

from .errors import (IndeterminatePolygonError, OrderFloorViolationError,
                     RootFindingError, SingularDirectionError)
from .series import TruncatedSeries

RAY_MERGE_TOL = 1e-9
# a direction this close (rad) to a singular ray lies on it
SINGULAR_RAY_TOL = 1e-9
ZERO_TOL = 1e-12
ROOT_RTOL = 1e-13       # relative step at which the root iteration has converged
ROOT_MAX_ITER = 500


@dataclass(frozen=True)
class SupportPoint:
    j: int
    alpha: tuple
    ord_t: int


@dataclass(frozen=True)
class NewtonPolygon:
    support: tuple        # SupportPoint per nonzero coefficient
    vertices: tuple       # corner vertices of the hull boundary, left to right
    slopes: tuple         # finite boundary slopes between vertices
    m: int                # declared weighted order of the equation

    def contains(self, x, y):
        """Point of the hull region (as a closed set)."""
        if not self.support:
            return False
        if x > max(p.j for p in self.support):
            return False
        return y >= self._floor(x)

    def _floor(self, x):
        """Lower boundary height of the hull region at abscissa x."""
        verts = self.vertices
        if x <= verts[0][0]:
            return verts[0][1]
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if x <= x1:
                # exact rational comparison is not needed: inputs are ints
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return verts[-1][1]


def newton_polygon(eq):
    """Hull of the support quadrants; orders must be determined by the window."""
    support = []
    for term in eq.terms:
        o = term.coeff.ord_t()
        if o.truncation_limited:
            if term.coeff.is_zero():
                continue  # exactly-zero coefficient contributes no quadrant
            raise IndeterminatePolygonError(
                "ord_t of coefficient (j=%d, alpha=%s) is truncation-limited" % (term.j, list(term.alpha)))
        support.append(SupportPoint(term.j, term.alpha, o.order))
    support.sort(key=lambda p: (p.j, p.alpha))
    vertices = _hull_vertices([(p.j, p.ord_t) for p in support])
    segment_slopes = [
        (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
    ]
    # leading horizontal half-line and trailing vertical half-line
    slopes = (0.0, *segment_slopes, math.inf) if vertices else ()
    return NewtonPolygon(tuple(support), tuple(vertices), slopes, eq.m)


def _hull_vertices(points):
    """Corner vertices of hull(union of C(j, o)) over integer points."""
    if not points:
        return ()
    # Pareto staircase: for each j keep the lowest o, then drop points
    # dominated by something further right and lower-or-equal.
    best = {}
    for j, o in points:
        if j not in best or o < best[j]:
            best[j] = o
    stairs = sorted(best.items())
    frontier = []
    for j, o in reversed(stairs):
        if not frontier or o < frontier[-1][1]:
            frontier.append((j, o))
    frontier.reverse()
    # lower convex chain of the frontier (region opens up-left)
    chain = []
    for pt in frontier:
        while len(chain) >= 2:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            # drop middle point if it lies on or above segment chain[-2]..pt
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                chain.pop()
            else:
                break
        chain.append(pt)
    return tuple(chain)


@dataclass
class ShapeReport:
    """Outcome of matching the polygon against the unit-slope template
    {x <= m, y >= max(0, x - m0)}."""
    ok: bool
    m0: int = None
    reasons: list = field(default_factory=list)

    def __str__(self):
        if self.ok:
            return "shape ok, corner offset m0=%d" % self.m0
        return "shape mismatch: " + "; ".join(self.reasons)


def check_shape(polygon):
    """Find the unique m0 with region = {x <= m, y >= max(0, x - m0)}."""
    reasons = []
    m = polygon.m
    if not polygon.support:
        return ShapeReport(False, reasons=["empty support"])
    jmax = max(p.j for p in polygon.support)
    if jmax != m:
        reasons.append("support reaches j=%d but the declared order is m=%d" % (jmax, m))
    floor_points = [p for p in polygon.support if p.ord_t == 0]
    if not floor_points:
        omin = min(p.ord_t for p in polygon.support)
        reasons.append("region has y >= %d at x=%d; no coefficient of t-order 0" %
                       (omin, max(p.j for p in polygon.support if p.ord_t == omin)))
        return ShapeReport(False, reasons=reasons)
    m0 = max(p.j for p in floor_points)
    if not 0 <= m0 < m:
        reasons.append("corner offset m0=%d violates 0 <= m0 < m=%d" % (m0, m))
    for p in polygon.support:
        if p.ord_t < max(0, p.j - m0):
            reasons.append("support point (%d, %d) below the template boundary (m0=%d)" % (p.j, p.ord_t, m0))
    at_m = [p.ord_t for p in polygon.support if p.j == m]
    if at_m and min(at_m) != m - m0:
        reasons.append("lowest order at j=m is %d, template corner needs %d" % (min(at_m), m - m0))
    if reasons:
        return ShapeReport(False, reasons=reasons)
    return ShapeReport(True, m0=m0)


@dataclass
class CheckReport:
    passed: bool
    messages: list = field(default_factory=list)
    skipped: bool = False

    def __str__(self):
        tag = "skipped" if self.skipped else ("pass" if self.passed else "fail")
        return tag + ("" if not self.messages else ": " + "; ".join(self.messages))


def is_interior(p, m, m0):
    """Support point p is off the boundary of the order-m polygon with corner offset m0."""
    return p.j < m and p.ord_t > max(0, p.j - m0)


def check_interior(eq, polygon, m0):
    """Every z-derivative term's support point must be interior to the hull."""
    messages = []
    m = polygon.m
    for p in polygon.support:
        if sum(p.alpha) == 0:
            continue
        if not is_interior(p, m, m0):
            messages.append("support point (%d, %d) of alpha=%s is on the boundary" %
                            (p.j, p.ord_t, list(p.alpha)))
    return CheckReport(not messages, messages)


def check_order_floors(eq, polygon, shape, interior):
    """Cross-check of the order floors entailed by the shape conditions:

        ord >= max(0, j - m0)      for |alpha| = 0,
        ord >= max(1, j - m0 + 1)  for |alpha| > 0.

    A failure here while both shape checks passed indicates a bug."""
    if not (shape.ok and interior.passed):
        return CheckReport(False, ["prerequisite shape conditions not satisfied"], skipped=True)
    m0 = shape.m0
    for p in polygon.support:
        if sum(p.alpha) == 0:
            floor = max(0, p.j - m0)
        else:
            floor = max(1, p.j - m0 + 1)
        if p.ord_t < floor:
            raise OrderFloorViolationError(
                "internal inconsistency: ord floor %d violated at (j=%d, alpha=%s, ord=%d)"
                % (floor, p.j, list(p.alpha), p.ord_t))
    return CheckReport(True)


def reduced_coefficients(eq, m0):
    """Divide out the forced t-power: a_{j,0} = t**(j-m0) * b_j for m0 < j <= m.

    Missing j yields the zero series.  A nonzero remainder means the order
    floors do not hold and raises."""
    tmap = eq.term_map()
    out = {}
    for j in range(m0 + 1, eq.m + 1):
        term = tmap.get((j, (0,) * eq.d))
        if term is None:
            out[j] = TruncatedSeries.zero(eq.d, max(1, eq.Kt - (j - m0)), eq.Kz)
            continue
        try:
            out[j] = term.coeff.shift_t_down(j - m0)
        except Exception as exc:
            raise OrderFloorViolationError(
                "coefficient at j=%d not divisible by t^%d: %s" % (j, j - m0, exc))
    return out


def check_nondegeneracy(eq, reduced, m0):
    """Endpoint nonvanishing: a_{m0,0}(0,0) != 0 and b_m(0,0) != 0."""
    messages = []
    tmap = eq.term_map()
    lead = tmap.get((m0, (0,) * eq.d))
    scale = max((t.coeff.norm_max() for t in eq.terms), default=1.0) or 1.0
    v0 = lead.coeff.constant_term() if lead is not None else 0j
    if abs(v0) <= ZERO_TOL * scale:
        messages.append("constant coefficient vanishes at the corner: a(j=%d) = %s" % (m0, v0))
    vm = reduced[eq.m].constant_term()
    if abs(vm) <= ZERO_TOL * scale:
        messages.append("reduced top coefficient vanishes: b(j=%d)(0,0) = %s" % (eq.m, vm))
    return CheckReport(not messages, messages)


def check_strong_margin(eq, m0):
    """Informational check of the stronger order floor

        ord_t(a_{j,alpha}) >= j - m0 + 2   for |alpha| > 0, m0 <= j < m.

    The resummation pipeline does not require it; when it fails the
    equation sits in the regime where only the squared-variable route
    certifies the bound, and the report says so."""
    messages = []
    holds = True
    for term in eq.terms:
        if sum(term.alpha) == 0 or not m0 <= term.j < eq.m:
            continue
        o = term.coeff.ord_t()
        if o.truncation_limited and term.coeff.is_zero():
            continue
        if o.order < term.j - m0 + 2:
            holds = False
            messages.append(
                "ord_t=%s at (j=%d, alpha=%s) is below j-m0+2=%d" %
                (o.order, term.j, list(term.alpha), term.j - m0 + 2))
    if not holds:
        messages.append("strong margin fails; summability still follows via the squared-variable route")
    return CheckReport(holds, messages)


@dataclass(frozen=True)
class CharPoly:
    """Polynomial in tau with z-series coefficients, indexed 0..degree."""
    q: float
    m0: int
    coeffs: tuple  # tuple of TruncatedSeries (z-only), ascending tau powers

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def at_z0(self):
        """Complex coefficient list at z = 0, ascending powers."""
        return [c.constant_term() for c in self.coeffs]

    def eval(self, tau, z0=None):
        z0 = z0 if z0 is not None else (0,) * self.coeffs[0].d
        acc = 0j
        for k, c in enumerate(self.coeffs):
            acc += c.evaluate(0, z0) * tau ** k
        return acc


def characteristic_polynomial(eq, reduced, m0):
    """P(tau, z) = sum_{m0<j<=m} b_j(0,z) q^{-j(j-1)/2} tau^{j-m0}
                 + a_{m0,0}(0,z) q^{-m0(m0-1)/2}."""
    q = eq.q
    d = eq.d
    tmap = eq.term_map()
    lead = tmap.get((m0, (0,) * d))
    const = lead.coeff.t_slice(0) if lead is not None else TruncatedSeries.zero(d, 1, eq.Kz)
    coeffs = [const * q ** (-m0 * (m0 - 1) / 2.0)]
    for j in range(m0 + 1, eq.m + 1):
        coeffs.append(reduced[j].t_slice(0) * q ** (-j * (j - 1) / 2.0))
    return CharPoly(q, m0, tuple(coeffs))


@dataclass(frozen=True)
class DirectionSet:
    roots: tuple   # nonzero complex roots of the characteristic polynomial at z=0
    rays: tuple    # arguments in (-pi, pi], duplicates merged

    def __str__(self):
        return "rays at " + ", ".join("%.6f rad" % r for r in self.rays)


def durand_kerner(coeffs):
    """Simultaneous iteration for all roots of sum c_k x^k (ascending c).

    Small degrees only; raises RootFindingError when the step size fails
    to contract below ROOT_RTOL relative within ROOT_MAX_ITER steps."""
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n < 1:
        return []
    if n == 1:
        return [-coeffs[0] / coeffs[1]]
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    seed = 0.4 + 0.9j  # standard asymmetric start
    roots = [radius * seed ** k for k in range(1, n + 1)]
    for _ in range(ROOT_MAX_ITER):
        worst = 0.0
        new = list(roots)
        for i in range(n):
            x = roots[i]
            num = 0j
            for c in reversed(monic):
                num = num * x + c
            den = 1.0 + 0j
            for k in range(n):
                if k != i:
                    den *= x - roots[k]
            if den == 0:
                den = 1e-300
            step = num / den
            new[i] = x - step
            scale = max(abs(new[i]), 1e-30)
            worst = max(worst, abs(step) / scale)
        roots = new
        if worst < ROOT_RTOL:
            return roots
    raise RootFindingError("root iteration did not converge within %d steps" % ROOT_MAX_ITER)


def singular_directions(charpoly):
    """Roots of the characteristic polynomial at z=0 and their rays."""
    c = charpoly.at_z0()
    scale = max(abs(x) for x in c) or 1.0
    if abs(c[0]) <= ZERO_TOL * scale or abs(c[-1]) <= ZERO_TOL * scale:
        raise SingularDirectionError("characteristic polynomial endpoints vanish at z=0")
    roots = durand_kerner(c)
    roots.sort(key=lambda r: (cmath.phase(r), abs(r)))
    rays = []
    for r in roots:
        ang = cmath.phase(r)
        if not any(_angle_gap(ang, existing) <= RAY_MERGE_TOL for existing in rays):
            rays.append(ang)
    return DirectionSet(tuple(roots), tuple(sorted(rays)))


def _angle_gap(a, b):
    gap = abs(a - b) % (2 * math.pi)
    return min(gap, 2 * math.pi - gap)


def direction_clearance(directions, lam):
    """Angular distance from arg(lam) to the nearest singular ray."""
    lam = complex(lam)
    if lam == 0:
        raise SingularDirectionError("direction lambda must be nonzero")
    return ray_clearance(lam, directions.rays)


def ray_clearance(lam, rays):
    """Angular distance from arg(lam) to the nearest of the rays, pi for none."""
    ang = cmath.phase(lam)
    return min((_angle_gap(ang, r) for r in rays), default=math.pi)
