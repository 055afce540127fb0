"""Substitution t -> t^2 with the quartic-root rebase of the shift.

Replacing t by t^2 and reading each shift S^j through the substitution
turns the equation into one of the same form with base q^{1/4} and shift
powers 2j; every t-order doubles, so an equation that misses the strong
order margin acquires it after squaring.  The squared equation is checked
with the polygon conditions of `newton` like any other equation.  The
identities tying its Borel transform and characteristic polynomial back
to the original ones are verified numerically here."""

import cmath
import math
from typing import NamedTuple

from .equation import Equation, Term
from .errors import QsumError
from .newton import check_shape, durand_kerner, newton_polygon

IDENTITY_RTOL = 1e-10
BOREL_IDENTITY_SAMPLES = 10
CHARPOLY_IDENTITY_SAMPLES = 20


class SquaredEquation(NamedTuple):
    equation: Equation      # same model: base q^{1/4}, shifts 2j, delta and m doubled
    m0_doubled: int


def substitute_square(eq):
    """Rewrite under t -> t^2: coefficients a(t^2, z), shifts 2j, base q^{1/4}."""
    shape = check_shape(newton_polygon(eq))
    if not shape.ok:
        raise QsumError("squared form needs the polygon shape to hold: %s" % shape)
    terms = tuple(Term(2 * t.j, t.alpha, t.coeff.subs_t_squared()) for t in eq.terms)
    sq = Equation(eq.q ** 0.25, 2 * eq.delta, 2 * eq.m, eq.d, terms, eq.rhs.subs_t_squared(), eq.R)
    return SquaredEquation(sq, 2 * shape.m0)


class IdentityReport(NamedTuple):
    passed: bool
    worst: float
    samples: list
    messages: list

    def __str__(self):
        tag = "pass" if self.passed else "fail"
        return "%s (worst relative gap %.3e over %d samples)" % (tag, self.worst, len(self.samples))


def truncated_entire_eval(coeffs):
    """Plain evaluator for the truncated sum of a_n t^n, exact for a polynomial.

    For a series, inside the disk of convergence the dropped tail is small
    once enough terms are kept; callers choose the sample radius and the
    truncation depth accordingly."""
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


def _identity_gaps(points, lhs, rhs):
    """Relative gap between lhs(x) and rhs(x) at each sample point, and the worst."""
    samples = []
    for x in points:
        left, right = lhs(x), rhs(x)
        samples.append((x, abs(left - right) / max(abs(left), abs(right), 1e-30)))
    return samples, max(gap for _, gap in samples)


def check_borel_square_identity(u_orig, u_sq, q, z0=None):
    """u1(xi, z) = u(q^{-1/4} xi^2, z) at sample points inside both disks.

    u1 is the squared equation's own Borel transform (base q^{1/4}), so a
    pass ties the two independently computed pipelines together."""
    z0 = tuple(z0) if z0 is not None else (0.0,) * u_orig.d
    r_sq = 0.4 * min(u_sq.radius_est, 10.0)
    r_from_orig = (0.4 * min(u_orig.radius_est, 10.0) * q ** 0.25) ** 0.5
    r = min(r_sq, r_from_orig)
    eval_sq = truncated_entire_eval([v.evaluate(0.0, z0) for v in u_sq.coeffs])
    eval_orig = truncated_entire_eval([v.evaluate(0.0, z0) for v in u_orig.coeffs])
    n = BOREL_IDENTITY_SAMPLES
    points = [cmath.rect(r * (0.3 + 0.7 * (k + 1) / n), 2.0 * math.pi * k / n + 0.3)
              for k in range(n)]
    samples, worst = _identity_gaps(points, eval_sq, lambda xi: eval_orig(q ** -0.25 * xi * xi))
    return IdentityReport(worst <= IDENTITY_RTOL, worst, samples, [])


def check_charpoly_square_identity(P, P1, m0, q):
    """P1(rho, 0) = q^{-m0/4} P(q^{-1/4} rho^2, 0) at sample points, plus the
    root correspondence rho^2 in q^{1/4} * roots(P)."""
    factor = q ** (-m0 / 4.0)
    eval_p = truncated_entire_eval(P.at_z0())
    n = CHARPOLY_IDENTITY_SAMPLES
    points = [cmath.rect(0.5 + 1.5 * k / (n - 1), 2.0 * math.pi * k / n + 0.1) for k in range(n)]
    samples, worst = _identity_gaps(points, truncated_entire_eval(P1.at_z0()),
                                    lambda rho: factor * eval_p(q ** -0.25 * rho * rho))
    messages = []
    ok = worst <= IDENTITY_RTOL
    p_roots = durand_kerner(P.at_z0())
    for rho in durand_kerner(P1.at_z0()):
        mapped = q ** -0.25 * rho * rho
        gap = min(abs(mapped - tau) / max(abs(tau), 1e-30) for tau in p_roots)
        if gap > 1e-6:
            ok = False
            messages.append("root %s of the squared polynomial does not map onto a root (gap %.2e)"
                            % (rho, gap))
    return IdentityReport(ok, worst, samples, messages)


def shift_square_identity_gap(f, q, m, t0, z0=()):
    """Relative gap in the executable shift identity

        f(q^m t^2, z) = F((sqrt(q))^m t, z),   F(t, z) = f(t^2, z),

    which is exact up to floating-point rounding for polynomial data."""
    F = f.subs_t_squared()
    lhs = f.evaluate(q ** float(m) * t0 * t0, z0)
    rhs = F.evaluate(math.sqrt(q) ** float(m) * t0, z0)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
