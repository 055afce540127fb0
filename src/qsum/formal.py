"""Formal power-series solution by coefficient recursion, residual
verification, and the super-exponential coefficient-growth fit.

Matching the coefficient of t^n in the equation gives

    c_n(z) X_n(z) = F_n(z) - sum_{p>=1} sum_{j,alpha} a_{j,alpha,p}(z)
                      * q^{j(n-p)} * Dz^alpha X_{n-p}(z)

with c_n(z) = sum_j a_{j,0,0}(z) q^{jn}.  Divergence is of order
q^{n(n-1)/2}, so the recursion is carried out on the scaled coefficients
v_n = X_n / q^{n(n-1)/2}, for which every factor stays of moderate size:
the p-step factor becomes q^{(j-p)(n-p) - p(p-1)/2}.
"""

import math
from functools import cached_property
from typing import NamedTuple

from .errors import ResonanceError, UnsupportedEquationError
from .growth import fit_envelope
from .series import TruncatedSeries, residual_norms

RESONANCE_TOL = 1e-12
# verify_formal flags an order whose residual exceeds this, relative to its
# largest contribution
FORMAL_RESIDUAL_TOL = 1e-10


class FormalSolution:
    """The formal solution to order count = N_max: scaled[n] is the
    z-series v_n = X_n / q^{n(n-1)/2}, and R1 the working polydisc radius
    for sup-norm estimates.  A read-only plain class, not a named tuple:
    its cached properties need an instance dict."""

    def __init__(self, q, count, scaled, R1, d):
        self.__dict__.update(q=q, count=count, scaled=scaled, R1=R1, d=d)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to FormalSolution.%s" % name)

    @cached_property
    def sup_norms(self):
        """Sup norms of v_n on |z| <= R1, per order."""
        return tuple(v.sup_norm(self.R1) for v in self.scaled)

    @cached_property
    def log_norms(self):
        """log ||X_n|| = log ||v_n|| + n(n-1)/2 ln q on |z| <= R1, per
        order; None for zero."""
        lnq = math.log(self.q)
        return tuple(math.log(s) + n * (n - 1) / 2.0 * lnq if s > 0 else None
                     for n, s in enumerate(self.sup_norms))

    def certified_by(self, fit):
        """Whether ||X_n|| <= A h^n q^{n(n-1)/2} holds on every order for
        the Gevrey fit's (A, h), read on log_norms."""
        lnq = math.log(self.q)
        return fit.holds(self.log_norms, [n * (n - 1) / 2.0 * lnq for n in range(self.count + 1)])

    def origin_values(self, n_max):
        """v_0..v_{n_max} at z = 0."""
        return [v.evaluate(0.0, (0.0,) * self.d) for v in self.scaled[:n_max + 1]]


def _presliced(eq):
    """[(j, alpha, p, z-series slice)] per term, plus diagnostics."""
    slices = []
    for term in eq.terms:
        for p, zpart in term.coeff.t_slices():
            slices.append((term.j, term.alpha, p, zpart))
    return slices


def _check_exponent_envelope(eq, n_max):
    # the recursion factors reach q^(m*n); beyond double range the scaled
    # representation would need a wider ledger than this module carries
    if eq.m * n_max * math.log10(eq.q) > 300.0:
        raise UnsupportedEquationError(
            "q^(m*n) factors exceed double range at m=%d, n=%d, q=%g" % (eq.m, n_max, eq.q))


def solve_formal(eq, n_max):
    """Scaled coefficients v_0..v_{n_max} of the formal solution.

    The z-window of v_n shrinks with n when z-derivative terms feed the
    recursion; callers wanting full depth at high orders must supply an
    equation parsed at a correspondingly padded Kz.  R1 (the polydisc
    radius for sup-norm estimates) is half the equation's z radius.
    """
    q = eq.q
    d = eq.d
    _check_exponent_envelope(eq, n_max)
    slices = _presliced(eq)
    diag = [s for s in slices if s[2] == 0]      # p = 0: the diagonal factor
    for j, alpha, _, _ in diag:
        if sum(alpha) != 0:
            raise UnsupportedEquationError(
                "z-derivative term (j=%d, alpha=%s) has a nonvanishing t-constant part; "
                "the order-by-order recursion cannot isolate X_n" % (j, list(alpha)))
    if not diag:
        raise UnsupportedEquationError("no coefficient of t-order 0; the recursion has no diagonal")
    lower = [s for s in slices if s[2] >= 1]
    rhs_slices = dict(eq.rhs.t_slices())
    zero = TruncatedSeries.zero(d, 1, eq.Kz)

    vs = []
    for n in range(n_max + 1):
        cn = zero
        for j, _, _, zpart in diag:
            cn = cn + zpart * (q ** (j * n))
        cn0 = cn.constant_term()
        scale = max(abs(zpart.constant_term()) * q ** (j * n) for j, _, _, zpart in diag)
        if abs(cn0) <= RESONANCE_TOL * max(scale, 1.0):
            raise ResonanceError(n)
        acc = rhs_slices.get(n, zero) * (q ** (-n * (n - 1) / 2.0))
        for j, alpha, p, zpart in lower:
            k = n - p
            if k < 0:
                continue
            factor = q ** ((j - p) * k - p * (p - 1) / 2.0)
            if factor == 0.0:
                continue
            acc = acc - zpart * factor * vs[k].dz_multi(alpha)
        vs.append(acc / cn)
    return FormalSolution(q, n_max, tuple(vs), R1=eq.R / 2.0, d=d)


class ResidualReport(NamedTuple):
    max_relative: float
    flagged: list            # orders with relative residual above tolerance
    tolerance: float

    @property
    def passed(self):
        return not self.flagged

    def __str__(self):
        s = "max scaled residual %.3e (tol %.1e)" % (self.max_relative, self.tolerance)
        if self.flagged:
            s += "; flagged orders " + ", ".join(str(n) for n in self.flagged)
        return s


def verify_formal(eq, sol):
    """Substitute the scaled solution back into the equation.

    Residuals are computed order by order in the same scaled arithmetic as
    the solve, so large n cannot overflow; they are reported relative to
    the largest contribution at each order."""
    q = eq.q
    _check_exponent_envelope(eq, sol.count)
    slices = _presliced(eq)
    rhs_slices = dict(eq.rhs.t_slices())
    flagged = []
    worst = 0.0
    for n in range(sol.count + 1):
        fn = rhs_slices.get(n)
        _, rel = residual_norms(
            (zpart * (q ** ((j - p) * (n - p) - p * (p - 1) / 2.0)) * sol.scaled[n - p].dz_multi(alpha)
             for j, alpha, p, zpart in slices if p <= n),
            None if fn is None else fn * (q ** (-n * (n - 1) / 2.0)))
        worst = max(worst, rel)
        if rel > FORMAL_RESIDUAL_TOL:
            flagged.append(n)
    return ResidualReport(worst, flagged, FORMAL_RESIDUAL_TOL)


def gevrey_fit(sol):
    """Envelope constants (A, H), the report's (A, h), with
    ||X_n|| <= A h^n q^{n(n-1)/2}.

    Fitted on the scaled norms ||v_n|| with no quadratic factor, so the
    diagnostic is log||v_n|| / n and h its largest value over the last
    third of the computed orders; exp(-log h) is the Borel radius."""
    logs = [math.log(s) if s > 0 else None for s in sol.sup_norms]
    return fit_envelope(logs, [0.0] * len(logs), -math.inf)
