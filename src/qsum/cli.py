"""Command-line front end.

Subcommands: check, polygon, directions, solve, borel, continue, square,
resum, verify, growth, report.  Each is a view of one `pipeline.Run`,
the one place the stages are computed: a view reads only the stages it
needs and returns its JSON document and exit code, and `main` writes the
document (after the CSV that `polygon`, `solve`, `continue` and `verify`
write with `--emit-csv`, which only they take).  `growth` prints the
report's `spiral_bound` section.  `check`, `polygon`, `directions` and
`square` read the equation at the requested z-window.  The views that
solve check the conditions there first and again on the padded equation
they solve, except `solve`, which reads no condition: an input whose
conditions fail exits 4 there when the recursion cannot run, where the
other views exit 2.  All artifacts are UTF-8; JSON is emitted pretty-printed
with sorted keys and CSV with a header row, so identical inputs produce
byte-identical files (timings are quarantined in their own report field).

Exit codes: 0 success; 2 a polygon-level condition failed; 3 singular or
effectively singular direction; 4 numerical failure (grid too short, seed
unreachable, root finding, a non-finite coefficient) or a failed
asymptotic verdict in `verify`;
5 usage or parse error (bad arguments, an unreadable file, a config line
that is not `key = value`, names an unknown key or holds a bad value, or
an option value the methods cannot use, such as a negative size, an
epsilon at or above (q-1)/(q+1), a remainder depth N above the orders,
or a t that is zero, not finite, more than 2^1000 times larger or
smaller than lambda, or inside or near an excluded spiral disk).
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .equation import series_rows, to_json
from .errors import (ConditionsFailed, ParseError, QsumError, SchemaError,
                     SingularDirectionError, UsageError)
from .newton import is_interior
from .pipeline import (HARD_CONDITIONS, Options, Run, asymptotic_doc, directions_doc,
                       json_float, polygon_doc, spiral_bound_doc)
from .qlaplace import q_laplace
from .report_schema import validate_report
from .square import substitute_square

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_SINGULAR = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 5


def _parse_complex(s):
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 're,im'")
    return complex(float(parts[0]), float(parts[1]))


def _load_config(path):
    """Flat key = value text; '#' starts a comment.  Every other line
    must set one of the settings' config keys.  A file that does not
    exist is read as empty."""
    config = {}
    if not path or not os.path.exists(path):
        return config
    known = [key for _, key, _ in _SETTINGS]
    for number, line in enumerate(_read_text(path, "config").split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("config %s line %d: expected key = value, got %r"
                             % (path, number, line))
        key, value = (x.strip() for x in line.split("=", 1))
        if key not in known:
            raise UsageError("config %s line %d: unknown key %r (known: %s)"
                             % (path, number, key, ", ".join(known)))
        config[key] = value.strip('"')
    return config


def _read_text(path, what):
    """The text of a UTF-8 file; any other is a usage error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError("%s %s is not UTF-8: %s" % (what, path, exc)) from exc


def _json_default(o):
    """Complex numbers are written as {"re": ..., "im": ...}."""
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    raise TypeError(type(o).__name__)


def _write(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_csv(rows, header, path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    _write("\n".join(lines) + "\n", path)


def _csv_cell(x):
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        return "%r%+ri" % (x.real, x.imag)
    return str(x)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error by raising it, so main() maps it to exit 5."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    ap = _Parser(prog="qsum",
                 description="Resummation toolkit for linear q-difference-differential equations")
    ap.add_argument("--config", default="qsum.toml", help="key=value config file (flags win)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_lambda=True):
        p.add_argument("equation", help="equation file (.qde DSL text or .json)")
        p.add_argument("--orders", type=int, default=None, help="formal orders to compute (default 40)")
        p.add_argument("--zorder", dest="Kz", type=int, default=None,
                       help="requested z-window Kz (default 8)")
        p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
        if with_lambda:
            p.add_argument("--lambda", dest="lam", type=_parse_complex, default=None, metavar="RE,IM")

    for name in ("check", "polygon", "directions", "solve", "borel", "square"):
        common(sub.add_parser(name), with_lambda=False)
    for name in ("continue", "resum", "verify", "growth", "report"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--mmax", type=int, default=None, help="top continuation index (default 40)")
    for name, p in sub.choices.items():
        if name in ("polygon", "solve", "continue", "verify"):
            p.add_argument("--emit-csv", dest="csv", default=None, metavar="PATH")
        if name in ("resum",):
            p.add_argument("--t", type=_parse_complex, required=True, metavar="RE,IM")
        if name in ("verify", "report"):
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--N", dest="n_check", type=int, default=None)
    return ap


# (Options field and parser dest, config key, parse) of every setting
_SETTINGS = (("orders", "orders", int), ("Kz", "zorder", int), ("mmax", "mmax", int),
             ("epsilon", "epsilon", float), ("n_check", "N", int), ("lam", "lambda", _parse_complex))


def _options_from(args, config):
    """Flags win over the config file, and the file over the Options defaults."""
    values = {}
    for name, key, parse in _SETTINGS:
        value = getattr(args, name, None)
        if value is None and key in config:
            try:
                value = parse(config[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError("config %s = %r: %s" % (key, config[key], exc))
        if value is not None:
            values[name] = value
    return Options(**values)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        opt = _options_from(args, _load_config(args.config))
        if args.command == "solve":
            opt = replace(opt, mmax=0)  # no march: pad the z-window for the recursion only
        run = Run(_read_text(args.equation, "equation file"), opt)
        doc, code = VIEWS[args.command](run, args)
        _write(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n", args.json)
        return code
    except (ParseError, SchemaError, UsageError, OSError) as exc:
        return _fail(exc, EXIT_USAGE)
    except ConditionsFailed as exc:
        return _fail(exc, EXIT_CONDITION)
    except SingularDirectionError as exc:
        return _fail(exc, EXIT_SINGULAR)
    except (ArithmeticError, QsumError) as exc:
        return _fail(exc, EXIT_NUMERIC)


def _fail(exc, code):
    print("error: %s" % exc, file=sys.stderr)
    return code


# ---------------------------------------------------------------- views

def _check(run, args):
    cond = run.conditions
    validation, shape = cond["validation"], cond["shape"]
    doc = {"validation": {"violations": validation.violations, "warnings": validation.warnings},
           "shape": {"ok": shape.ok, "m0": shape.m0, "reasons": shape.reasons}}
    if shape.ok:
        for key in ("interior", "nondegeneracy", "strong_margin"):
            doc[key] = {"ok": cond[key].passed, "messages": cond[key].messages}
    ok = validation.ok and shape.ok and all(cond[c].passed for c in HARD_CONDITIONS)
    return doc, EXIT_OK if ok else EXIT_CONDITION


def _polygon(run, args):
    polygon, shape = run.conditions["polygon"], run.conditions["shape"]
    if args.csv is not None:
        rows = []
        for p in polygon.support:
            on_boundary = p.ord_t == max(0, p.j - shape.m0) if shape.ok else ""
            interior = is_interior(p, polygon.m, shape.m0) if shape.ok else ""
            rows.append((p.j, "|".join(map(str, p.alpha)), p.ord_t, on_boundary, interior))
        for v in polygon.vertices:
            rows.append((v[0], "vertex", v[1], "", ""))
        _emit_csv(rows, ("j", "alpha", "ord_t", "on_boundary", "interior"), args.csv)
    doc = dict(polygon_doc(polygon, shape), ok=shape.ok, reasons=shape.reasons)
    return doc, EXIT_OK if shape.ok else EXIT_CONDITION


def _directions(run, args):
    run.require("nondegeneracy")
    return directions_doc(run.directions), EXIT_OK


def _square(run, args):
    run.require()
    sq = substitute_square(run.requested)
    return json.loads(to_json(sq.equation)), EXIT_OK


def _solve(run, args):
    sol, fit = run.solution, run.gevrey
    log10 = [lg / math.log(10.0) if lg is not None else None for lg in sol.log_norms]
    doc = {"orders": sol.count, "A": fit.A, "h": fit.H,
           "coefficients": [{"n": n, "v": series_rows(v), "log10_norm": log10[n], "g": fit.diag[n]}
                            for n, v in enumerate(sol.scaled)]}
    if args.csv is not None:
        rows = [(n, "-inf" if lg is None else lg, fit.diag[n] if fit.diag[n] is not None else "")
                for n, lg in enumerate(log10)]
        _emit_csv(rows, ("n", "log10_norm", "g_n"), args.csv)
    return doc, EXIT_OK


def _borel(run, args):
    run.require_solvable()
    u = run.borel
    return {"radius_est": json_float(u.radius_est),
            "coefficients": [series_rows(v) for v in u.coeffs]}, EXIT_OK


def _continue(run, args):
    run.require_solvable()
    grid, fitb = run.grid, run.spiral_bound
    norms = grid.norms_logq
    doc = {"lambda": grid.lam,
           "m_min": grid.m_min, "m_max": grid.m_max, "seed_top": grid.seed_top,
           "C": fitb.A, "H": fitb.H, "bounded": fitb.settled,
           "values": [{"m": m,
                       "value_z0": {"mantissa": grid.values[m].series.constant_term(),
                                    "qexp": grid.values[m].qexp},
                       "sup_logq": norms[m]}
                      for m in range(max(grid.m_min, -10), grid.m_max + 1)]}
    if args.csv is not None:
        rows = [(m, fitb.diag[m] if 0 <= m < len(fitb.diag) and fitb.diag[m] is not None else "")
                for m in range(grid.m_min, grid.m_max + 1)]
        _emit_csv(rows, ("m", "diagnostic"), args.csv)
    return doc, EXIT_OK


def _resum(run, args):
    run.require_solvable()
    return {"t": args.t, "W": q_laplace(run.grid, args.t, epsilon=run.kernel_epsilon)[0]}, EXIT_OK


def _verify(run, args):
    run.require_solvable()
    run.require_epsilon()
    rep, grid, n_check = run.asymptotic, run.grid, run.options.n_check
    if args.csv is not None:
        rows = []
        for N in range(0, n_check + 1):
            e_max = max(rep.EN[N]) if rep.EN[N] else 0.0
            bound = (rep.M * rep.H ** N / rep.epsilon
                     * grid.q ** (N * (N - 1) / 2.0)
                     * max(abs(t) for t in rep.samples) ** N)
            rows.append((N, e_max, bound, rep.rho[N] if rep.rho[N] is not None else ""))
        _emit_csv(rows, ("N", "max_E_N", "bound", "rho_N"), args.csv)
    doc = asymptotic_doc(rep)
    if rep.passed:
        return doc, EXIT_OK
    return doc, _fail("asymptotic verdict %s: %s" % (rep.verdict, "; ".join(rep.reasons)),
                      EXIT_NUMERIC)


def _growth(run, args):
    run.require_solvable()
    return spiral_bound_doc(run), EXIT_OK


def _report(run, args):
    doc = run.report().to_dict()
    problems = validate_report(doc)
    if problems:
        raise QsumError("report schema violation: " + "; ".join(problems))
    return doc, EXIT_OK


VIEWS = {"check": _check, "polygon": _polygon, "directions": _directions, "solve": _solve,
         "borel": _borel, "continue": _continue, "square": _square, "resum": _resum,
         "verify": _verify, "growth": _growth, "report": _report}


if __name__ == "__main__":
    sys.exit(main())
