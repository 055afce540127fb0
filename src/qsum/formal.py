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
from dataclasses import dataclass
from functools import cached_property

from .errors import ResonanceError, UnsupportedEquationError
from .growth import GROWTH_SLACK, last_third
from .scaled import QScaled
from .series import TruncatedSeries, residual_norms

RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class FormalSolution:
    q: float
    count: int          # highest computed order N_max
    scaled: tuple       # v_n = X_n / q^{n(n-1)/2}, z-series per order
    R1: float           # working polydisc radius for sup-norm estimates
    d: int

    @cached_property
    def sup_norms(self):
        """Sup norms of v_n on |z| <= R1, per order."""
        return tuple(v.sup_norm(self.R1) for v in self.scaled)

    def gevrey_rate(self):
        """log h: the largest log||v_n|| / n over the last third of the
        orders n >= 1 with v_n != 0, where the pre-asymptotic wobble has
        died out; None when every such v_n is zero.  The Borel radius is
        exp(-rate)."""
        nonzero = [n for n in range(1, self.count + 1) if self.sup_norms[n] > 0]
        if not nonzero:
            return None
        return max(math.log(self.sup_norms[n]) / n for n in last_third(nonzero, self.count))


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


@dataclass
class ResidualReport:
    per_order: list          # (n, absolute residual, relative residual)
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


def verify_formal(eq, sol, tol=1e-10):
    """Substitute the scaled solution back into the equation.

    Residuals are computed order by order in the same scaled arithmetic as
    the solve, so large n cannot overflow; they are reported relative to
    the largest contribution at each order."""
    q = eq.q
    _check_exponent_envelope(eq, sol.count)
    slices = _presliced(eq)
    rhs_slices = dict(eq.rhs.t_slices())
    per_order = []
    flagged = []
    worst = 0.0
    for n in range(sol.count + 1):
        fn = rhs_slices.get(n)
        res, rel = residual_norms(
            (zpart * (q ** ((j - p) * (n - p) - p * (p - 1) / 2.0)) * sol.scaled[n - p].dz_multi(alpha)
             for j, alpha, p, zpart in slices if p <= n),
            None if fn is None else fn * (q ** (-n * (n - 1) / 2.0)))
        per_order.append((n, res, rel))
        worst = max(worst, rel)
        if rel > tol:
            flagged.append(n)
    return ResidualReport(per_order, worst, flagged, tol)


@dataclass
class GevreyFit:
    A: float
    h: float
    norms: list       # QScaled sup-norm estimates of X_n on the R1 polydisc
    g: list           # diagnostic (log M_n - (n(n-1)/2) log q) / n, None where M_n = 0

    def certificate_holds(self, q):
        """Post-hoc check of |X_n| <= A h^n q^{n(n-1)/2} on every order."""
        if self.A == 0:
            return all(m.is_zero() for m in self.norms)
        logA, logh = math.log(self.A), math.log(self.h)
        for n, mn in enumerate(self.norms):
            if mn.is_zero():
                continue
            bound = logA + n * logh + n * (n - 1) / 2.0 * math.log(q)
            if mn.log_abs() > bound + GROWTH_SLACK:
                return False
        return True


def gevrey_fit(sol):
    """Envelope constants (A, h) with ||X_n|| <= A h^n q^{n(n-1)/2}.

    h is the largest ||v_n||^{1/n} over the stabilized window (the last
    third of computed orders, where the pre-asymptotic wobble has died
    out); A is then the smallest constant making the bound hold at every
    order."""
    norms = [QScaled(sol.q, s, n * (n - 1) / 2.0) for n, s in enumerate(sol.sup_norms)]
    logs = [math.log(s) if s > 0 else None for s in sol.sup_norms]
    g = [None if lg is None or n == 0 else lg / n for n, lg in enumerate(logs)]
    if all(lg is None for lg in logs):
        return GevreyFit(0.0, 1.0, norms, g)
    rate = sol.gevrey_rate()
    logh = 0.0 if rate is None else rate
    logA = max(logs[n] - n * logh for n in range(sol.count + 1) if logs[n] is not None)
    return GevreyFit(math.exp(logA), math.exp(logh), norms, g)
