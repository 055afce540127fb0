"""End-to-end orchestration: polygon conditions, formal solve, Borel
continuation, the kernel-sample stage (`Run.kernel_samples`, which sums W
once per sample point), the residuals and the asymptotic verdict,
collected into one machine-readable report.

`Run` is the one place the stages run.  Each stage is computed on first
read and at most once, and its own time (without the stages it reads) is
added to its `timings` key.  `run_report` reads the stages in order; the
CLI subcommands read only the stages they need.  The polygon conditions
are read at the requested window before the padded parse solves
anything, and again on the padded equation that the solve and the march
use, which the report's verdicts describe.

The z-window is sized here: every z-derivative in the coefficient
recursion and in the continuation march consumes one unit of window per
step, so the parse window is padded by alpha_max * (orders + march span)
to leave the requested depth at the top of the grid."""

import cmath
import math
import time
from functools import cached_property
from typing import NamedTuple

from .equation import from_json, parse_equation, validate
from .errors import (ConditionsFailed, SingularDirectionError, UnsupportedEquationError,
                     UsageError)
from .formal import gevrey_fit, solve_formal, verify_formal
from .newton import (SINGULAR_RAY_TOL, characteristic_polynomial, check_interior,
                     check_nondegeneracy, check_order_floors, check_shape,
                     check_strong_margin, direction_clearance, newton_polygon,
                     reduced_coefficients, singular_directions)
from .qborel import (SEED_RADIUS_FRACTION, borel_transform, borel_transformed_equation,
                     continue_spiral, fit_spiral_bound)
from .qlaplace import (KernelSamples, SpiralGeometry, _require_epsilon, asymptotic_check,
                       residual_check)

# with the polygon shape, the conditions every stage past them needs
HARD_CONDITIONS = ("interior", "nondegeneracy")
RESIDUAL_SAMPLES = 10


class Options:
    """The run's settings.  A plain class, not a named tuple, because it
    checks its values when built."""

    def __init__(self, lam=1.0 + 0j, orders=40, mmax=40, Kz=8, epsilon=0.3, n_check=12):
        """Sizes and epsilon must be in range; the upper bound on epsilon,
        (q-1)/(q+1), is checked where q is known (Run.require_epsilon).
        Errors name the setting as the config file and the flags do."""
        self.lam, self.orders, self.mmax, self.Kz = lam, orders, mmax, Kz
        self.epsilon, self.n_check = epsilon, n_check
        for name, key, low in (("orders", "orders", 1), ("mmax", "mmax", 0),
                               ("n_check", "N", 1), ("Kz", "zorder", 0)):
            if getattr(self, name) < low:
                raise UsageError("%s must be at least %d (got %d)" % (key, low, getattr(self, name)))
        _require_epsilon(self.epsilon)
        lam = complex(self.lam)
        if not (cmath.isfinite(lam) and lam != 0):
            raise UsageError("lambda must be nonzero and finite (got %r)" % lam)

    def kt(self):
        """The t-window: one order past the formal solve."""
        return self.orders + 1


class RunReport(NamedTuple):
    equation: dict
    polygon: dict
    verdicts: dict
    directions: dict
    gevrey: dict
    spiral_bound: dict
    residuals: dict
    asymptotic: dict
    timings: dict

    def to_dict(self):
        return self._asdict()


def _verdict(ok, detail=""):
    return {"status": "pass" if ok else "fail", "detail": detail}


def json_complex(c):
    """c as the JSON object {"re": ..., "im": ...}."""
    return {"re": c.real, "im": c.imag}


def json_float(x):
    """x, or "inf" where it is not finite: JSON has no infinity."""
    return x if math.isfinite(x) else "inf"


def _is_json(text):
    return text.lstrip().startswith("{")


def parse_requested(text, options):
    """The equation at the requested window.  JSON documents carry fixed
    coefficient data and are returned as stored."""
    if _is_json(text):
        return from_json(text)
    return parse_equation(text, Kt=options.kt(), Kz=max(options.Kz, 1))


def size_parse_window(text, options, requested):
    """Parse once at the padded window the march and recursion will need.

    A probe parse at Kz=14, or at the requested Kz where that is larger,
    gives the highest derivative order, alpha_max, of every term the
    requested window holds, and a small probe solve on it (its order
    count sized for Kz=14) estimates the seed index, so the march span
    (and with it the derivative budget) is known before the real solve.
    A probe the recursion cannot solve gives no estimate; the conditions
    on the padded equation, or the real solve, then report why.  Where
    nothing is padded, a JSON document or an equation without
    z-derivatives, this is `requested`, the parse at the requested window."""
    if _is_json(text):
        return requested
    probe_kz = 14
    probe = parse_equation(text, Kt=options.kt(), Kz=max(probe_kz, options.Kz))
    alpha_max = probe.max_alpha()
    if alpha_max == 0:
        return requested
    probe_orders = max(2, min(options.orders, (probe_kz - 2) // alpha_max))
    try:
        radius = borel_transform(solve_formal(probe, probe_orders)).radius_est
    except UnsupportedEquationError:
        radius = math.inf
    if math.isfinite(radius) and radius > 0:
        seed_est = math.floor(math.log(SEED_RADIUS_FRACTION * radius / abs(options.lam), probe.q))
    else:
        seed_est = 0
    span = options.mmax - min(seed_est, 0) + 4
    pad = alpha_max * (options.orders + span)
    return parse_equation(text, Kt=options.kt(), Kz=options.Kz + pad)


def polygon_doc(polygon, shape):
    """The polygon's support, vertices and slopes and the corner offset m0."""
    return {"support": [{"j": p.j, "alpha": list(p.alpha), "ord_t": p.ord_t} for p in polygon.support],
            "vertices": [list(v) for v in polygon.vertices],
            "slopes": [json_float(s) for s in polygon.slopes],
            "m0": shape.m0}


def directions_doc(ds):
    """The characteristic roots and the singular rays."""
    return {"roots": [json_complex(r) for r in ds.roots], "rays": list(ds.rays)}


def asymptotic_doc(rep):
    """An asymptotic check's verdict, constants and resolved pairs."""
    return {"verdict": rep.verdict, "M": rep.M, "H": rep.H, "epsilon": rep.epsilon,
            "reasons": rep.reasons, "samples": len(rep.samples),
            "pairs_used": rep.used, "pairs_dropped": rep.dropped}


def spiral_bound_doc(run):
    """The fitted bound ||u*(lambda q^m)|| <= C H^m q^{m^2/2}, with the grid
    it was fitted on, the Borel radius and the leading symbol's roots."""
    u, grid, bound = run.borel, run.grid, run.spiral_bound
    return {"C": bound.A, "H": bound.H, "bounded": bound.settled,
            "trend_slope": bound.slope,
            "grid": {"m_min": grid.m_min, "seed_top": grid.seed_top, "m_max": grid.m_max},
            "radius_est": json_float(u.radius_est),
            "theta_budget": grid.theta_budget,
            "lead_roots": [json_complex(r) for r in grid.lead_roots]}


def analyze_conditions(eq):
    """Polygon, shape/interior/floor checks, reduced coefficients,
    nondegeneracy and strong margin."""
    out = {}
    out["validation"] = validate(eq)
    out["polygon"] = newton_polygon(eq)
    out["shape"] = check_shape(out["polygon"])
    if out["shape"].ok:
        m0 = out["shape"].m0
        out["interior"] = check_interior(eq, out["polygon"], m0)
        out["floors"] = check_order_floors(eq, out["polygon"], out["shape"], out["interior"])
        out["reduced"] = reduced_coefficients(eq, m0)
        out["nondegeneracy"] = check_nondegeneracy(eq, out["reduced"], m0)
        out["strong_margin"] = check_strong_margin(eq, m0)
    return out


def _stage(key):
    """A Run attribute computed on first read; its own time, without the
    stages it reads, is added to timings[key]."""
    def wrap(fn):
        def compute(self):
            t0 = time.perf_counter()
            outer, self._nested = self._nested, 0.0
            try:
                return fn(self)
            finally:
                took = time.perf_counter() - t0
                self.timings[key] = self.timings.get(key, 0.0) + took - self._nested
                self._nested = outer + took
        compute.__doc__ = fn.__doc__
        return cached_property(compute)
    return wrap


class Run:
    """The stages of the pipeline on one equation text (DSL or JSON)."""

    def __init__(self, text, options=None):
        self.text = text
        self.options = options or Options()
        self.timings = {}
        self._nested = 0.0

    @_stage("parse")
    def requested(self):
        """The equation at the requested window, where `check` reads the conditions."""
        return parse_requested(self.text, self.options)

    @_stage("conditions")
    def conditions(self):
        return analyze_conditions(self.requested)

    @_stage("conditions")
    def directions(self):
        cond = self.conditions
        return singular_directions(characteristic_polynomial(self.requested, cond["reduced"],
                                                             cond["shape"].m0))

    def require(self, *checks, padded=False):
        """Raise ConditionsFailed unless the polygon shape and the named
        checks hold at the requested window, or on the padded equation."""
        cond, where = self.conditions, ""
        if padded:
            cond = self.solved_conditions
            where = " on the padded equation (Kz=%d)" % self.equation.Kz
        if cond["shape"].ok:
            failed = [(c, cond[c].messages) for c in checks if not cond[c].passed]
        else:
            failed = [("shape", cond["shape"].reasons)]
        if failed:
            raise ConditionsFailed("conditions failed%s: %s" % (where, ", ".join(
                "%s (%s)" % (c, "; ".join(why)) for c, why in failed)))

    def require_solvable(self):
        """The gate of the views that solve: the hard conditions at the
        requested window, then on the padded equation.  When both hold, the
        corner offset m0 and the singular directions agree: the padded
        window adds only monomials of z-degree >= Kz, and a corner or a
        derivative term that only they put on the t-order floor fails
        nondegeneracy or interior there."""
        self.require(*HARD_CONDITIONS)
        self.require(*HARD_CONDITIONS, padded=True)

    def require_epsilon(self):
        """The gate of the views that read the asymptotic stages, after
        the conditions and before anything is solved: epsilon must lie
        below the disk-disjointness threshold (q-1)/(q+1), and the
        remainder depth N must not exceed the formal orders."""
        opt = self.options
        SpiralGeometry(complex(opt.lam), opt.epsilon, self.equation.q).require_disjoint()
        if opt.n_check > opt.orders:
            raise UsageError("remainder depth %d exceeds the computed formal order %d"
                             % (opt.n_check, opt.orders))

    @_stage("parse")
    def equation(self):
        """The equation at the padded window the solve and the march use."""
        return size_parse_window(self.text, self.options, requested=self.requested)

    @_stage("conditions")
    def solved_conditions(self):
        eq = self.equation
        return self.conditions if eq is self.requested else analyze_conditions(eq)

    @_stage("formal")
    def solution(self):
        return solve_formal(self.equation, self.options.orders)

    @_stage("formal")
    def formal_residual(self):
        return verify_formal(self.equation, self.solution)

    @_stage("formal")
    def gevrey(self):
        return gevrey_fit(self.solution)

    @_stage("continuation")
    def borel(self):
        return borel_transform(self.solution)

    @_stage("continuation")
    def borel_equation(self):
        return borel_transformed_equation(self.equation, self.solved_conditions["shape"].m0)

    @_stage("continuation")
    def grid(self):
        u = self.borel
        return continue_spiral(self.borel_equation, u, self.options.lam, self.options.mmax)

    @_stage("continuation")
    def spiral_bound(self):
        return fit_spiral_bound(self.grid)

    @_stage("continuation")
    def kernel_samples(self):
        """W at the points the residual and asymptotic stages read, each summed once."""
        return KernelSamples(self.grid)

    @property
    def kernel_epsilon(self):
        """The epsilon of the residual samples and of `qsum resum`: the
        run's, capped at 0.1."""
        return min(self.options.epsilon, 0.1)

    @_stage("residual")
    def residuals(self):
        # |t| = 0.05|lambda| and 0.1|lambda| on RESIDUAL_SAMPLES / 2 rays
        eps, lam, kernel = self.kernel_epsilon, self.grid.lam, self.kernel_samples
        samples = kernel.table.sample_fan(eps, RESIDUAL_SAMPLES // 2,
                                          (0.05 * abs(lam), 0.1 * abs(lam)))
        return residual_check(self.equation, kernel, samples, epsilon=eps)

    @_stage("asymptotic")
    def asymptotic(self):
        """The asymptotic check at epsilon, with the one at epsilon/2 in its `half`."""
        return asymptotic_check(self.solution, self.kernel_samples, self.options.epsilon,
                                self.options.n_check)

    def report(self):
        """Every stage, read in order, as a RunReport.  Raises
        ConditionsFailed, SingularDirectionError and the numerical errors,
        which the CLI maps to exit codes."""
        lam = complex(self.options.lam)
        self.require_solvable()
        self.require_epsilon()
        cond = self.solved_conditions
        shape = cond["shape"]
        verdicts = {"shape": _verdict(shape.ok, str(shape))}
        for name, key in (("interior", "interior"), ("order_floors", "floors"),
                          ("nondegeneracy", "nondegeneracy"), ("strong_margin", "strong_margin")):
            verdicts[name] = _verdict(cond[key].passed, str(cond[key]))
        polygon = dict(polygon_doc(cond["polygon"], shape), m=cond["polygon"].m)

        ds = self.directions
        clearance = direction_clearance(ds, lam)
        directions = dict(directions_doc(ds), clearance=clearance)
        if clearance <= SINGULAR_RAY_TOL:
            raise SingularDirectionError("lambda lies on a singular ray (clearance %.2e)" % clearance)

        eq = self.equation
        formal_residual, fit = self.formal_residual, self.gevrey
        certificate = self.solution.certified_by(fit)
        gevrey = {
            "A": fit.A, "h": fit.H,
            "g_tail": fit.diag[-5:],
            "certificate": certificate,
            "formal_residual": formal_residual.max_relative,
        }
        verdicts["formal_residual"] = _verdict(formal_residual.passed, str(formal_residual))
        verdicts["gevrey_certificate"] = _verdict(certificate)

        spiral_bound, bound = spiral_bound_doc(self), self.spiral_bound
        verdicts["spiral_bound"] = _verdict(
            bound.settled, "C=%.6g H=%.6g (diagnostic %s, trend %.3g/step)"
            % (bound.A, bound.H, "bounded" if bound.settled else "UNBOUNDED", bound.slope))

        res = self.residuals
        residuals = {
            "max_absolute": res.max_absolute,
            "max_relative": res.max_relative,
            "count": len(res.samples),
            "rejected": len(res.rejected),
            "samples": [{"t": json_complex(s.t), "abs": s.absolute, "rel": s.relative} for s in res.samples],
        }
        verdicts["residual"] = _verdict(res.passed, str(res))

        # the expansion property quantifies over all small epsilon; the
        # report states the verdicts at epsilon and epsilon/2 separately
        primary = self.asymptotic
        per_eps = [primary, primary.half]
        asymptotic = dict(asymptotic_doc(primary), rho=list(primary.rho), per_epsilon=[
            {"epsilon": a.epsilon, "verdict": a.verdict, "M": a.M, "H": a.H,
             "pairs_used": a.used, "pairs_dropped": a.dropped} for a in per_eps])
        verdicts["asymptotic"] = _verdict(all(a.passed for a in per_eps),
                                          "; ".join(r for a in per_eps for r in a.reasons))
        return RunReport(
            equation={"q": eq.q, "delta": {"num": eq.delta.numerator, "den": eq.delta.denominator},
                      "m": eq.m, "d": eq.d, "terms": len(eq.terms),
                      "Kt": eq.Kt, "Kz": eq.Kz, "lambda": json_complex(lam)},
            polygon=polygon, verdicts=verdicts, directions=directions, gevrey=gevrey,
            spiral_bound=spiral_bound, residuals=residuals, asymptotic=asymptotic,
            timings=self.timings)


def run_report(text, options=None):
    """The full pipeline on an equation text (DSL or JSON); see Run.report."""
    return Run(text, options).report()

