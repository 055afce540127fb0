"""Digests of a fixed sweep of 240 reports, to check that a change leaves
every report byte-identical.

    python tests/report_sweep.py --src PATH

imports qsum from PATH (a directory that holds the `qsum` package, such
as `src`) and runs `run_report` on the 40 equations of `corpus(40, seed)`
for the seeds 20240901, 1 and 2, each written as a JSON document with
`perfbench/inputs.sized_json` (from this checkout) at `Options(orders=20,
mmax=20)` and run with those options at epsilon 0.3 and at epsilon
min(0.3, 0.45 (q-1)/(q+1)).  It prints one line per report, its key and
the SHA-256 of its `to_dict()` without `timings` as JSON, or of the
error's type and message, and a last line with the SHA-256 of all those
lines.  Run it on two trees and compare the totals; the file name keeps
pytest from collecting it.
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
    src = os.path.abspath(parser.parse_args(argv).src)
    sys.path.insert(0, src)
    import qsum
    if not os.path.abspath(qsum.__file__).startswith(os.path.join(src, "qsum") + os.sep):
        raise SystemExit("qsum was imported from %s, not from %s" % (qsum.__file__, src))
    from qsum.corpus import corpus
    from qsum.pipeline import Options, run_report
    inputs = _inputs()
    sized = Options(orders=20, mmax=20)
    total, finished, lines = hashlib.sha256(), 0, 0
    for seed in SEEDS:
        for i, eq in enumerate(corpus(COUNT, seed, Kt=sized.kt(), Kz=12)):
            text = inputs.sized_json(eq, sized)
            for eps in (0.3, min(0.3, 0.45 * (eq.q - 1.0) / (eq.q + 1.0))):
                outcome, ok = _outcome(run_report, text, Options(orders=20, mmax=20, epsilon=eps))
                line = "%d-%02d eps=%r %s" % (seed, i, eps,
                                              hashlib.sha256(outcome.encode("utf-8")).hexdigest())
                print(line)
                total.update((line + "\n").encode("utf-8"))
                finished += ok
                lines += 1
    print("total %s (%d reports: %d finished, %d errors)"
          % (total.hexdigest(), lines, finished, lines - finished))


if __name__ == "__main__":
    main(sys.argv[1:])
