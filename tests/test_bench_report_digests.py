"""Pins every benchmark report, byte for byte, at its benchmark options.

The inputs are the benchmark's own (perfbench/inputs.py): the three
equation texts of the `euler` and `zseries` workloads, run through
`run_report` at `Options()`, and the twelve `corpus-cli` documents, run
through `qsum.cli.main` as the benchmark runs them (`report --orders 20
--mmax 20`).  Two more equation texts, with delta = 1/2 and delta = 2,
run at `Options()` too.  Each finished report is pinned by the SHA-256
of its JSON without `timings`: `to_dict()` in its own key order for an
equation text, the CLI's output for a document.  A document that exits
with an error is pinned by its exit code and message.  So every float of
every report is pinned at the options the benchmark measures, which the
view digests (`--orders 16 --mmax 16`) do not cover.

A change that means to alter a report re-records the file with

    PYTHONPATH=src python tests/test_bench_report_digests.py

which prints each key whose entry changed, and says why in its
description.
"""

import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qsum.cli import _json_default, main
from qsum.pipeline import Options, run_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "bench_report_digests.json")
# the equations with delta = 1/2 and delta = 2 named in ROADMAP item 1
EXTRA = {
    "delta-half": ("q=2; delta=1/2; m=2; d=1; "
                   "eq: S^1(X) + t*S^2(X) + t*S^0 Dz1^2(X) = 1/(1-z1)"),
    "delta-2": "q=2; delta=2; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^0 Dz1^1(X) = 1/(1-z1)",
}


def _inputs():
    """perfbench/inputs.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


INPUTS = _inputs()
TEXTS = dict(EXTRA)
for _workload in ("euler", "zseries"):
    TEXTS.update((key, text) for key, _, text in INPUTS.build(_workload))
DOCUMENTS = INPUTS.corpus_keys()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_entry(key):
    """The digest of run_report's to_dict() without timings."""
    doc = run_report(TEXTS[key], Options()).to_dict()
    doc.pop("timings")
    return _sha(json.dumps(doc, default=_json_default))


def document_entry(key, workdir):
    """The digest of `qsum report`'s JSON without timings, or the exit code
    and message of a run that fails."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--config", os.path.join(workdir, "absent.toml")] + INPUTS.cli_args(
        INPUTS.corpus_path(key), INPUTS.options("corpus-cli"))
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return {"exit": code, "message": err.getvalue()}
    doc = json.loads(out.getvalue())
    doc.pop("timings")
    return _sha(json.dumps(doc, indent=2, sort_keys=True))


def all_entries():
    entries = {"text/" + key: text_entry(key) for key in sorted(TEXTS)}
    with tempfile.TemporaryDirectory() as workdir:
        entries.update(("corpus/" + key, document_entry(key, workdir)) for key in DOCUMENTS)
    return entries


@pytest.fixture(scope="module")
def recorded():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_benchmark_input_is_pinned(recorded):
    assert set(recorded) == {"text/" + k for k in TEXTS} | {"corpus/" + k for k in DOCUMENTS}


@pytest.mark.parametrize("key", sorted(TEXTS))
def test_text_report_is_unchanged(recorded, key):
    assert text_entry(key) == recorded["text/" + key]


@pytest.mark.parametrize("key", DOCUMENTS)
def test_document_report_is_unchanged(tmp_path, recorded, key):
    assert document_entry(key, str(tmp_path)) == recorded["corpus/" + key]


if __name__ == "__main__":
    old = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            old = json.load(fh)
    new = all_entries()
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print(key)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
