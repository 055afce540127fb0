"""Pins the bytes of every CLI view.

Each of the eleven subcommands runs in process on three equations
(q-Euler, the README's d=1 equation and a mixed d=2 case) with
`--orders 16 --mmax 16 --N 6 --json -`, `--emit-csv` on the views that
write CSV, and `--t 0.1,0.05` for `resum`.  The SHA-256 digest of each
run's exit code, stdout, stderr and CSV is compared with the one in
`cli_view_digests.json`; the `timings` field of a report is dropped
before hashing.

The digests pin what the views print, so a change that means to alter
the output re-records them with

    PYTHONPATH=src python tests/test_cli_views.py

and says why in its description.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qsum.cli import VIEWS, main

EQUATIONS = {
    "euler": "q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1\n",
    "readme-d1": "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)\n",
    "mixed-d2": ("q=2; delta=1; m=2; d=2; "
                 "eq: S^1(X) + t*S^2(X) + t^2*z2*S^0 Dz1^1 Dz2^1(X) = 1 + z1*z2\n"),
}
CSV_VIEWS = ("polygon", "solve", "continue", "verify", "growth")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_view_digests.json")


def _argv(command, path, csv, config):
    argv = ["--config", config, command, path, "--orders", "16", "--json", "-"]
    if command in ("continue", "resum", "verify", "growth", "report"):
        argv += ["--mmax", "16"]
    if command in ("verify", "report"):
        argv += ["--N", "6"]
    if command == "resum":
        argv += ["--t", "0.1,0.05"]
    if command in CSV_VIEWS:
        argv += ["--emit-csv", csv]
    return argv


def view_digest(command, equation, workdir):
    """SHA-256 of (exit code, stdout, stderr, CSV) of one view run."""
    path = os.path.join(workdir, equation + ".qde")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(EQUATIONS[equation])
    csv = os.path.join(workdir, "out.csv")
    if os.path.exists(csv):
        os.remove(csv)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(_argv(command, path, csv, os.path.join(workdir, "absent.toml")))
    stdout = out.getvalue()
    if command == "report" and code == 0:
        doc = json.loads(stdout)
        doc.pop("timings")
        stdout = json.dumps(doc, indent=2, sort_keys=True)
    csv_text = open(csv, encoding="utf-8").read() if os.path.exists(csv) else None
    blob = json.dumps([code, stdout, err.getvalue(), csv_text])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def all_digests():
    with tempfile.TemporaryDirectory() as workdir:
        return {"%s/%s" % (command, equation): view_digest(command, equation, workdir)
                for command in sorted(VIEWS) for equation in sorted(EQUATIONS)}


@pytest.fixture(scope="module")
def recorded():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_view_is_pinned(recorded):
    assert set(recorded) == {"%s/%s" % (c, e) for c in VIEWS for e in EQUATIONS}


@pytest.mark.parametrize("command", sorted(VIEWS))
def test_view_output_is_unchanged(tmp_path, recorded, command):
    for equation in sorted(EQUATIONS):
        key = "%s/%s" % (command, equation)
        assert view_digest(command, equation, str(tmp_path)) == recorded[key], key


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(all_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
