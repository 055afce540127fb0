"""qsum benchmark: time to a verified report.

    python3 perfbench/run.py --workload euler --seed 1 --seconds 30 --trace 0

Runs one workload for `--seconds`, checks every report against the
reference recorded from the seed code (perfbench/reference/), and prints
one JSON result as the last line of standard output: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The line before it holds the run's stamp and details.

Other modes:
    --workload all          every workload in turn, as a table
    --record                rewrite the corpus documents and the reference
                            files from the current code
    --out PATH              also write the stamp, details and result to PATH

The traced run also writes every span, as JSON lines, to
.bench_work/spans-<workload>.jsonl.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference")
PROBES = os.path.join(WORK, "probes.json")       # a child's speed probes
CHILD_TIMEOUT = 120
SETUP_REPS = 9

STAGES = ("parse", "conditions", "formal", "continuation", "residual", "asymptotic")
END_TO_END = {
    "setup_s": "s", "report_s_p50": "s", "report_s_tail": "s",
    "ok_frac": "frac", "residual_digits": "digits", "peak_rss_mb": "MB",
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


if not os.path.isfile(os.path.join(SRC, "qsum", "__init__.py")):
    fail("no qsum sources under %s; run from a full checkout" % SRC)
sys.path.insert(0, SRC)

import check  # noqa: E402
import clock  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import qsum.cli  # noqa: E402
import qsum.pipeline  # noqa: E402


# ---------------------------------------------------------------- stamp

def git_sha():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    pkg = os.path.join(SRC, "qsum")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def stamp(args):
    return {"git_sha": git_sha(), "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "src_lines": src_lines()}


# ---------------------------------------------------------------- running one input

def _json_default(o):
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    raise TypeError(type(o).__name__)


def normalized(doc):
    """The report as it reads back from JSON, without volatile fields."""
    return json.loads(json.dumps(check.stable_report(doc), default=_json_default))


def opt_args(workload):
    opt = inputs.options(workload)
    return {"lam": [opt.lam.real, opt.lam.imag], "orders": opt.orders, "mmax": opt.mmax,
            "Kz": opt.Kz, "epsilon": opt.epsilon, "n_check": opt.n_check}


def cli_argv(workload, key):
    return ["--config", os.path.join(WORK, "none.toml")] + inputs.cli_args(
        inputs.corpus_path(key), inputs.options(workload))


def run_dsl(workload, payload):
    """run_report in this process, unmetered: (start, end, outcome, timings)."""
    opt = inputs.options(workload)
    t0 = time.perf_counter()
    try:
        rep = qsum.pipeline.run_report(payload, opt)
    except Exception as exc:  # every failure is an outcome to compare
        t1 = time.perf_counter()
        return t0, t1, {"exit": 1, "error": type(exc).__name__, "report": None}, {}
    t1 = time.perf_counter()
    doc = rep.to_dict()
    return t0, t1, {"exit": 0, "error": None, "report": normalized(doc)}, dict(doc["timings"])


def _cli_outcome(code, out, err):
    if code != 0:
        return {"exit": code, "error": check.error_type(err), "report": None}, {}
    doc = json.loads(out)
    return {"exit": 0, "error": None, "report": normalized(doc)}, dict(doc.get("timings", {}))


def run_cli_child(meter, workload, key):
    """`python -m qsum.cli report` in a child process that probes itself:
    (start, end, outcome, timings, bytes of JSON output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = meter.run_child(["-m", "qsum.cli"] + cli_argv(workload, key), PROBES, cwd=WORK,
                           env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    t1 = time.perf_counter()
    outcome, timings = _cli_outcome(proc.returncode, proc.stdout, proc.stderr)
    return t0, t1, outcome, timings, len(proc.stdout.encode("utf-8"))


def run_cli_inprocess(workload, key):
    """qsum.cli.main in this process, output captured: (start, end, outcome,
    timings, bytes)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qsum.cli.main(cli_argv(workload, key))
        except Exception as exc:  # an unmapped error is what a child shows as exit 1
            code = 1
            err.write("%s: %s\n" % (type(exc).__name__, exc))
    t1 = time.perf_counter()
    outcome, timings = _cli_outcome(code, out.getvalue(), err.getvalue())
    return t0, t1, outcome, timings, len(out.getvalue().encode("utf-8"))


def runner(workload, in_process, meter):
    """A function (key, kind, payload) -> (start, end, outcome, timings,
    json bytes) that leaves the report's speed probes in `meter`."""
    def run(key, kind, payload):
        if kind == "dsl":
            return meter.run(run_dsl, workload, payload) + (0,)
        if in_process:
            return meter.run(run_cli_inprocess, workload, key)
        return run_cli_child(meter, workload, key)
    return run


# ---------------------------------------------------------------- set-up and reference

SETUP_CODE = "import sys; sys.path[:0] = [%r, %r]; import qsum, inputs; inputs.build(%r)"


def measure_setup(workload, meter):
    """Calibrated and raw wall seconds for SETUP_REPS fresh interpreters
    to import qsum and build the inputs."""
    code = SETUP_CODE % (SRC, BENCH, workload)
    walls, raw = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = meter.run_child(["-c", code], PROBES, cwd=WORK, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            fail("set-up child failed:\n" + proc.stderr, 3)
        walls.append(meter.seconds(t0, t1))
        raw.append(t1 - t0)
    return walls, raw


def prepare(workload):
    """The inputs, and the work directory the children run in."""
    os.makedirs(WORK, exist_ok=True)
    return inputs.build(workload)


def load_reference(workload, items):
    """The recorded outcomes; every input must have one of matching hash."""
    path = os.path.join(REFERENCE, workload + ".json")
    if not os.path.exists(path):
        fail("no reference recorded at %s" % path, 3)
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    args = opt_args(workload)
    for key, kind, payload in items:
        entry = ref["inputs"].get(key)
        if entry is None or entry["sha256"] != check.input_hash(kind, payload, args):
            fail("reference for %s/%s does not match the input" % (workload, key), 3)
    return ref["inputs"]


def record(workload):
    if workload == "corpus-cli":
        inputs.generate_corpus()
    items = prepare(workload)
    run = runner(workload, False, clock.Meter())
    args = opt_args(workload)
    entries = {}
    for key, kind, payload in items:
        outcome = run(key, kind, payload)[2]
        entries[key] = dict(outcome, sha256=check.input_hash(kind, payload, args))
        print("%-22s exit %s %s" % (key, outcome["exit"], outcome["error"] or ""), file=sys.stderr)
    os.makedirs(REFERENCE, exist_ok=True)
    with open(os.path.join(REFERENCE, workload + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "options": args, "inputs": entries}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- the measured loop

class Tally:
    """Per-report bookkeeping shared by both modes."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.regressed = []          # (key, reasons): worse than the reference
        self.not_ok = {}             # cause -> count: raised, non-zero exit or regressed
        self.samples = {}            # key -> calibrated seconds of each successful report
        self.raw = {}                # key -> raw wall seconds of the same reports
        self.factors = []            # speed factor of every report
        self.timings = []            # RunReport.timings of successful reports, calibrated
        self.worst_residual = 0.0
        self.worst_drift = 0.0

    def add(self, key, seconds, raw, factor, outcome, timings):
        ref = self.refs[key]
        self.attempted += 1
        self.factors.append(factor)
        reasons = check.regressions(outcome, ref)
        self.worst_drift = max(self.worst_drift, check.drift(outcome, ref))
        if reasons:
            self.regressed.append((key, reasons))
        if outcome["exit"] != 0 or reasons:
            cause = "regressed" if reasons else "exit %d %s" % (outcome["exit"], outcome["error"])
            self.not_ok[cause] = self.not_ok.get(cause, 0) + 1
            return
        self.samples.setdefault(key, []).append(seconds)
        self.raw.setdefault(key, []).append(raw)
        self.timings.append({k: v * factor for k, v in timings.items()})
        self.worst_residual = max(self.worst_residual,
                                  outcome["report"]["residuals"]["max_absolute"])

    def ok(self):
        return sum(len(v) for v in self.samples.values())


def run_rounds(items, run, meter, tally, rng, seconds, canonical_first=False, on_round=None):
    """Whole rounds (every input once, in an order drawn from `rng`) until
    `seconds` have passed; `run` leaves each report's probes in `meter`."""
    t_start = time.perf_counter()
    first = True
    while True:
        order = list(items)
        if not (canonical_first and first):
            rng.shuffle(order)
        wall = 0.0
        for key, kind, payload in order:
            t0, t1, outcome, timings, _ = run(key, kind, payload)
            took = meter.seconds(t0, t1)
            wall += took
            tally.add(key, took, t1 - t0, meter.factor(), outcome, timings)
        if on_round is not None:
            on_round(wall)
        first = False
        if time.perf_counter() - t_start >= seconds:
            return


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "corpus-cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def warm_up(items, run):
    """One untimed report, so lazy imports and first-call costs stay out of
    the samples; a fresh interpreter per report has nothing to warm."""
    key, kind, payload = items[0]
    run(key, kind, payload)


def end_to_end(args, items, refs):
    meter = clock.Meter()
    setup, setup_raw = measure_setup(args.workload, meter)
    run = runner(args.workload, False, meter)
    if args.workload != "corpus-cli":
        warm_up(items, run)
    tally = Tally(refs)
    run_rounds(items, run, meter, tally, random.Random(args.seed), args.seconds)
    if not tally.samples:
        fail("no report finished; causes: %s" % tally.not_ok, 3)
    tail, pct, n = check.mix_tail(tally.samples)
    metrics = {
        "setup_s": check.median(setup),
        "report_s_p50": check.mix_p50(tally.samples),
        "report_s_tail": tail,
        "ok_frac": tally.ok() / tally.attempted,
        "residual_digits": -math.log10(max(tally.worst_residual, 1e-300)),
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    detail = {
        "setup_s": setup, "setup_raw_s": setup_raw,
        "tail_percentile": pct, "tail_samples": n,
        "raw_report_s_p50": check.mix_p50(tally.raw),
        "speed_factor_p50": check.median(tally.factors),
        "per_input_p50": {k: check.median(v) for k, v in sorted(tally.samples.items())},
        "per_input_raw_p50": {k: check.median(v) for k, v in sorted(tally.raw.items())},
        "per_input_reports": {k: len(v) for k, v in sorted(tally.samples.items())},
        "not_ok_by_cause": tally.not_ok,
        "regressions": tally.regressed,
        "drift_max": tally.worst_drift,
        "residual_max_absolute": tally.worst_residual,
    }
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail


# ---------------------------------------------------------------- the traced run

ISO_BUDGET_S = 0.3


def iso_time(meter, fn, *fargs, **fkwargs):
    """Median calibrated seconds per call, timed in batches of at least ~2 ms."""
    def batches():
        t0 = time.perf_counter()
        fn(*fargs, **fkwargs)
        one = time.perf_counter() - t0
        batch = max(1, int(0.002 / max(one, 1e-9)))
        timed = []
        deadline = time.perf_counter() + ISO_BUDGET_S
        while len(timed) < 3 or (time.perf_counter() < deadline and len(timed) < 50):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn(*fargs, **fkwargs)
            timed.append((t0, time.perf_counter()))
        return batch, timed
    batch, timed = meter.run(batches)
    return check.median([meter.seconds(t0, t1) / batch for t0, t1 in timed])


def isolated_layers(captured, meter):
    """The ROADMAP's isolated layer timings, on objects from the first report."""
    import qsum.formal
    import qsum.qborel
    import qsum.qlaplace
    from qsum.series import TruncatedSeries, divide

    def timed(name, fn, scale):
        if name not in captured:
            return 0.0
        fargs, fkwargs, _ = captured[name]
        return iso_time(meter, fn, *fargs, **fkwargs) * scale

    out = {
        "series.mul.iso_us": timed("series.mul", TruncatedSeries.__mul__, 1e6),
        "series.divide.iso_us": timed("series.divide", divide, 1e6),
        "formal.solve_formal.iso_ms": timed("formal.solve_formal", qsum.formal.solve_formal, 1e3),
        "qborel.continue_spiral.iso_ms": timed("qborel.continue_spiral",
                                               qsum.qborel.continue_spiral, 1e3),
        "qlaplace.q_laplace_series.iso_ms": timed("qlaplace.q_laplace_series",
                                                  qsum.qlaplace.q_laplace_series, 1e3),
        "qlaplace.asymptotic_check.iso_ms": timed("qlaplace.asymptotic_check",
                                                  qsum.qlaplace.asymptotic_check, 1e3),
        "qlaplace.theta.iso_us": 0.0,
    }
    if "qlaplace.q_laplace_series" in captured:
        grid, t = captured["qlaplace.q_laplace_series"][0][:2]
        out["qlaplace.theta.iso_us"] = iso_time(meter, qsum.qlaplace.theta,
                                                grid.lam / complex(t), grid.q) * 1e6
    return out


def per_layer(args, items, refs):
    """Untraced and traced rounds alternate; the first traced round runs
    in canonical order and supplies the objects for the isolated timings."""
    meter = clock.Meter()
    run = runner(args.workload, True, meter)
    rng = random.Random(args.seed)
    rec = spans.SpanRecorder()
    inst = spans.Instrument(rec)
    plain, traced = Tally(refs), Tally(refs)
    plain_walls, traced_walls = [], []
    json_bytes = []
    captured = {}
    iso = None

    def run_counting_bytes(key, kind, payload):
        res = run(key, kind, payload)
        if res[2]["exit"] == 0 and kind == "json":
            json_bytes.append(res[4])
        return res

    warm_up(items, run)
    t_start = time.perf_counter()
    while True:
        run_rounds(items, run, meter, plain, rng, 0.0, on_round=plain_walls.append)
        inst.capture = captured if iso is None else None
        inst.install()
        try:
            run_rounds(items, run_counting_bytes, meter, traced, rng, 0.0,
                       canonical_first=iso is None, on_round=traced_walls.append)
        finally:
            inst.uninstall()
            inst.capture = None
        if iso is None:
            iso = isolated_layers(captured, meter)
        if time.perf_counter() - t_start >= args.seconds:
            break

    n = max(1, traced.attempted)
    summary = rec.summary()
    counters = inst.counters
    speed = check.median(traced.factors)

    def span(name, field):
        value = summary.get(name, {}).get(field, 0) / n
        return value if field == "calls" else value * speed

    def stage(name):
        vals = [t.get(name, 0.0) for t in plain.timings]
        return sum(vals) / len(vals) if vals else 0.0

    newton_self = sum(row["self_s"] for name, row in summary.items() if name.startswith("newton."))
    asym_calls = summary.get("qlaplace.asymptotic_check", {}).get("calls", 0)
    drift = max(plain.worst_drift, traced.worst_drift)
    metrics = {}
    for s in STAGES:
        metrics["pipeline.%s_s" % s] = (stage(s), "s")
    metrics.update({
        "pipeline.size_parse_window.self_s": (span("pipeline.size_parse_window", "self_s"), "s"),
        "pipeline.size_parse_window.total_s": (span("pipeline.size_parse_window", "total_s"), "s"),
        "pipeline.drift_log10": (math.log10(max(drift, check.DRIFT_FLOOR)), "log10"),
        "equation.parse_equation.calls": (span("equation.parse_equation", "calls"), "count"),
        "equation.parse_equation.self_s": (span("equation.parse_equation", "self_s"), "s"),
        "equation.from_json.self_s": (span("equation.from_json", "self_s"), "s"),
        "newton.self_s": (newton_self / n * speed, "s"),
        "formal.solve_formal.calls": (span("formal.solve_formal", "calls"), "count"),
        "formal.solve_formal.self_s": (span("formal.solve_formal", "self_s"), "s"),
        "formal.verify_formal.self_s": (span("formal.verify_formal", "self_s"), "s"),
        "formal.gevrey_fit.self_s": (span("formal.gevrey_fit", "self_s"), "s"),
        "qborel.continue_spiral.self_s": (span("qborel.continue_spiral", "self_s"), "s"),
        "qborel.fit_spiral_bound.self_s": (span("qborel.fit_spiral_bound", "self_s"), "s"),
        "qborel.grid_points": (counters.get("qborel.grid_points", 0) / n, "count"),
        "qborel.march_steps": (counters.get("qborel.march_steps", 0) / n, "count"),
        "qlaplace.q_laplace_series.calls": (span("qlaplace.q_laplace_series", "calls"), "count"),
        "qlaplace.q_laplace_series.self_s": (span("qlaplace.q_laplace_series", "self_s"), "s"),
        "qlaplace.residual_check.self_s": (span("qlaplace.residual_check", "self_s"), "s"),
        "qlaplace.asymptotic_check.calls": (span("qlaplace.asymptotic_check", "calls"), "count"),
        "qlaplace.asymptotic_check.self_s": (span("qlaplace.asymptotic_check", "self_s"), "s"),
        "qlaplace.zone_membership.calls": (span("qlaplace.zone_membership", "calls"), "count"),
        "qlaplace.kernel_terms": (counters.get("qlaplace.kernel_terms", 0) / n, "count"),
        "qlaplace.asym_points": (counters.get("qlaplace.asym_points", 0) / max(1, asym_calls),
                                 "count"),
        "series.init.calls": (counters.get("series.init.calls", 0) / n, "count"),
        "series.coeffs_in": (counters.get("series.coeffs_in", 0) / n, "count"),
        "series.add.calls": (span("series.add", "calls"), "count"),
        "series.add.self_s": (span("series.add", "self_s"), "s"),
        "series.mul.calls": (span("series.mul", "calls"), "count"),
        "series.mul.self_s": (span("series.mul", "self_s"), "s"),
        "series.divide.calls": (span("series.divide", "calls"), "count"),
        "series.divide.self_s": (span("series.divide", "self_s"), "s"),
        "series.divide.window_keys": (counters.get("series.divide.window_keys", 0) / n, "count"),
        "scaled.init.calls": (counters.get("scaled.init.calls", 0) / n, "count"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "report_schema.validate_report.self_s": (span("report_schema.validate_report", "self_s"),
                                                 "s"),
        "cli.json_bytes": (sum(json_bytes) / max(1, len(json_bytes)), "bytes"),
    })
    for name, value in iso.items():
        metrics[name] = (value, "us" if name.endswith("_us") else "ms")
    metrics["trace.overhead_frac"] = (check.median(traced_walls) / check.median(plain_walls) - 1.0,
                                      "frac")
    rec.write(os.path.join(WORK, "spans-%s.jsonl" % args.workload))
    tally = Tally(refs)
    tally.attempted = plain.attempted + traced.attempted
    tally.regressed = plain.regressed + traced.regressed
    detail = {
        "untraced_rounds": len(plain_walls), "traced_rounds": len(traced_walls),
        "spans": len(rec), "traced_reports": traced.attempted,
        "iso_captured": sorted(captured),
        "regressions": tally.regressed,
        "drift_max": drift,
    }
    return tally, metrics, detail


# ---------------------------------------------------------------- entry points

def result_line(tally, metrics):
    return {
        "correct": not tally.regressed,
        "attempted": tally.attempted,
        "failed": len(tally.regressed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def pin_to_one_cpu():
    """Keep this process, its children and the calibration loop on one CPU,
    so the speed the loop measures is the speed the report ran at."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args):
    pin_to_one_cpu()
    items = prepare(args.workload)
    refs = load_reference(args.workload, items)
    measure = per_layer if args.trace else end_to_end
    tally, metrics, detail = measure(args, items, refs)
    result = result_line(tally, metrics)
    info = {"stamp": stamp(args), "detail": detail}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(info, result=result), fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; a table of every metric by name and unit."""
    mode = ["--trace", str(args.trace), "--seed", str(args.seed), "--seconds", str(args.seconds)]
    combined = {"stamp": stamp(args), "workloads": {}}
    for name in inputs.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name] + mode,
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            fail("workload %s failed:\n%s" % (name, proc.stderr), proc.returncode)
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        combined["workloads"][name] = {"detail": info["detail"], "result": result}
        print("%s: correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for metric, row in result["metrics"].items():
            print("  %-40s %14.6g %s" % (metric, row["value"], row["unit"]))
        for cause, count in sorted(info["detail"].get("not_ok_by_cause", {}).items()):
            print("  not ok: %-30s %d" % (cause, count))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({name: w["result"] for name, w in combined["workloads"].items()}))


def main(argv=None):
    ap = argparse.ArgumentParser(description="qsum benchmark: time to a verified report")
    ap.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.record:
        for name in (inputs.WORKLOADS if args.workload == "all" else (args.workload,)):
            record(name)
        return 0
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
