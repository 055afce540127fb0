"""Outcome checks against the recorded reference, and the sample statistics.

An outcome is {"exit": int, "error": str or None, "report": dict or None}.
Exit 0 is a finished report, 2-5 are the CLI's documented failure codes,
and anything else (a Python traceback exits 1) is an unmapped crash.
"""

import hashlib
import json
import math

VOLATILE = ("timings", "trace")        # fields that may differ run to run
STATUS_RANK = {"pass": 2, "skipped": 1, "fail": 0}
DRIFT_FLOOR = 1e-16


def input_hash(kind, payload, opt_args):
    text = json.dumps([kind, payload, opt_args], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stable_report(doc):
    """The report without its run-to-run volatile fields."""
    return {k: v for k, v in doc.items() if k not in VOLATILE}


def exit_rank(code):
    if code == 0:
        return 2
    if code in (2, 3, 4, 5):
        return 1
    return 0


def error_type(stderr_text):
    """Exception type of a traceback, or "error" for a mapped CLI message."""
    lines = [ln for ln in stderr_text.strip().splitlines() if ln.strip()]
    if not lines:
        return None
    last = lines[-1]
    if last.startswith("error:"):
        return "error"
    head = last.split(":", 1)[0].strip()
    return head.rsplit(".", 1)[-1] if head else None


def regressions(outcome, ref):
    """Reasons the outcome is worse than the reference; empty if it is not."""
    out = []
    if exit_rank(outcome["exit"]) < exit_rank(ref["exit"]):
        out.append("exit %s (reference %s %s)" % (outcome["exit"], ref["exit"], ref["error"] or ""))
        return out
    if ref["report"] is None or outcome["report"] is None:
        return out
    got = outcome["report"].get("verdicts", {})
    for name, verdict in ref["report"].get("verdicts", {}).items():
        new = got.get(name, {}).get("status")
        if STATUS_RANK.get(new, -1) < STATUS_RANK[verdict["status"]]:
            out.append("verdict %s: %s (reference %s)" % (name, new, verdict["status"]))
    return out


def _drift(a, b):
    """Largest relative difference over numeric leaves present in the
    reference `b`; a missing leaf or a changed shape counts as 1."""
    if isinstance(b, bool) or isinstance(a, bool):
        return 0.0 if a == b else 1.0
    if isinstance(b, (int, float)):
        if not isinstance(a, (int, float)):
            return 1.0
        if a == b:
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return 1.0
        return min(1.0, abs(a - b) / max(abs(a), abs(b)))
    if isinstance(b, dict):
        if not isinstance(a, dict):
            return 1.0
        return max((_drift(a[k], v) if k in a else 1.0 for k, v in b.items()), default=0.0)
    if isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            return 1.0
        return max((_drift(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0


def drift(outcome, ref):
    """Relative numeric drift of a finished report from its reference."""
    if outcome["report"] is None or ref["report"] is None:
        return 0.0 if outcome["exit"] == ref["exit"] else 1.0
    return _drift(stable_report(outcome["report"]), ref["report"])


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(xs, beyond=10):
    """The highest percentile of `xs` with at least `beyond` samples above
    it: (value, percentile, sample count).  With `beyond` or fewer samples
    no such percentile exists and the smallest sample (percentile 0) is
    returned."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    k = max(0, n - beyond - 1)
    return xs[k], 100.0 * max(0, n - beyond) / n, n


def mix_p50(per_input):
    """Mean over inputs of each input's median: the typical report of a
    fixed mix, not a value on the boundary between two inputs' clusters."""
    meds = [median(v) for v in per_input.values() if v]
    return sum(meds) / len(meds)


def mix_tail(per_input, beyond=10):
    """The tail rule on samples scaled to their own input's mean, then put
    back on the scale of the mix median.  (Scaling by the median would make
    every odd-sized input contribute an exact 1.0.)"""
    p50 = mix_p50(per_input)
    scaled = []
    for v in per_input.values():
        if v:
            m = sum(v) / len(v)
            scaled.extend(x / m for x in v)
    value, pct, n = tail(scaled, beyond)
    return value * p50, pct, n
