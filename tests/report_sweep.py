"""Digests of a fixed sweep of 270 reports, to check that a change leaves
every report byte-identical.

    python tests/report_sweep.py --src PATH [--reverse]

imports qsum from PATH (a directory that holds the `qsum` package, such
as `src`) and runs `run_report` on the 40 equations of `corpus(40, seed)`
for the seeds 20240901, 1 and 2, each written as a JSON document with
`perfbench/inputs.sized_json` (from this checkout) at `Options(orders=20,
mmax=20)` and run with those options at epsilon 0.3 and at epsilon
min(0.3, 0.45 (q-1)/(q+1)).  Then come 21 reports that share lambda = 1
and one q per block, and whose sample fans change with epsilon: the
benchmark's three DSL equations (perfbench/inputs.py) at the same
options, at q = 1.4 with epsilon 0.15, 0.04 and 0.02 (8, 9 and 10
residual samples), at q = 3 with 0.3 and 0.45 (96 and 82 points in the
asymptotic fan at epsilon) and at q = 10 with 0.72 and 0.8 (92 and 90
points at epsilon/2, which rounds to 0.4 at both).  The last 9 share
q = 2, lambda = 1 and epsilon 0.3, and so the asymptotic fan, and
differ in the remainder depth: the three equations with N = 6, 9 and
12.  It prints one line
per report, its key and the SHA-256 of its `to_dict()` without `timings`
as JSON, or of the error's type and message, and a last line with the
SHA-256 of all those lines.  Run it on two trees and compare the totals;
the file name keeps pytest from collecting it.  With --reverse the
reports run in the opposite order and their lines print in the same
order as without it, so equal totals show that no report depends on what
the process ran before it (qsum.qlaplace.kernel_table keeps tables
across reports); a table entry keyed by less than its value depends on
shows there as a report that differs in the two orders.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (20240901, 1, 2)
COUNT = 40
# (q, epsilons) of the blocks of reports that share a kernel table
SHARED = ((1.4, (0.15, 0.04, 0.02)), (3.0, (0.3, 0.45)), (10.0, (0.72, 0.8)))
# the remainder depths of the last block, at q = 2 and epsilon 0.3
DEPTHS = (6, 9, 12)


def _inputs():
    """perfbench/inputs.py of this checkout, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _outcome(run_report, text, opt):
    """The report's JSON without timings, or the error's type and message."""
    try:
        doc = run_report(text, opt).to_dict()
    except Exception as err:  # every outcome is compared, errors included
        return "%s: %s" % (type(err).__name__, err), False
    doc.pop("timings")
    return json.dumps(doc), True


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="a directory that holds the qsum package")
    parser.add_argument("--reverse", action="store_true",
                        help="run the reports last to first; print them in the usual order")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import qsum
    if not os.path.abspath(qsum.__file__).startswith(os.path.join(src, "qsum") + os.sep):
        raise SystemExit("qsum was imported from %s, not from %s" % (qsum.__file__, src))
    from qsum.corpus import corpus
    from qsum.pipeline import Options, run_report
    inputs = _inputs()
    sized = Options(orders=20, mmax=20)
    jobs = []  # (key, text, options), in the order of the lines
    for seed in SEEDS:
        for i, eq in enumerate(corpus(COUNT, seed, Kt=sized.kt(), Kz=12)):
            text = inputs.sized_json(eq, sized)
            for eps in (0.3, min(0.3, 0.45 * (eq.q - 1.0) / (eq.q + 1.0))):
                jobs.append(("%d-%02d eps=%r" % (seed, i, eps), text,
                             Options(orders=20, mmax=20, epsilon=eps)))
    dsl = (("euler", inputs.EULER), ("readme-d1", inputs.README_D1), ("mixed-d2", inputs.MIXED_D2))
    for q, epsilons in SHARED:
        for name, text in dsl:
            for eps in epsilons:
                jobs.append(("%s q=%r eps=%r" % (name, q, eps), text.replace("q=2;", "q=%r;" % q),
                             Options(orders=20, mmax=20, epsilon=eps)))
    for name, text in dsl:
        for depth in DEPTHS:
            jobs.append(("%s q=2.0 eps=0.3 N=%d" % (name, depth), text,
                         Options(orders=20, mmax=20, epsilon=0.3, n_check=depth)))
    outcomes = [None] * len(jobs)
    for n in (reversed(range(len(jobs))) if args.reverse else range(len(jobs))):
        outcomes[n] = _outcome(run_report, *jobs[n][1:])
    total, finished = hashlib.sha256(), 0
    for (key, _, _), (outcome, ok) in zip(jobs, outcomes):
        line = "%s %s" % (key, hashlib.sha256(outcome.encode("utf-8")).hexdigest())
        print(line)
        total.update((line + "\n").encode("utf-8"))
        finished += ok
    print("total %s (%d reports: %d finished, %d errors)"
          % (total.hexdigest(), len(jobs), finished, len(jobs) - finished))


if __name__ == "__main__":
    main(sys.argv[1:])
