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

which prints each key whose digest changed, and says why in its
description.
"""

import hashlib
import io
import json
import math
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
CSV_VIEWS = ("polygon", "solve", "continue", "verify")
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
    csv_text = None
    if os.path.exists(csv):
        with open(csv, encoding="utf-8") as fh:
            csv_text = fh.read()
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


@pytest.mark.parametrize("equation", sorted(EQUATIONS))
def test_growth_prints_the_spiral_bound_of_the_report(tmp_path, capsys, equation):
    path = tmp_path / (equation + ".qde")
    path.write_text(EQUATIONS[equation])
    docs = {}
    for command in ("growth", "report"):
        assert main(_argv(command, str(path), None, os.devnull)) == 0
        docs[command] = json.loads(capsys.readouterr().out)
    assert docs["growth"] == docs["report"]["spiral_bound"]



def _verify_csv(tmp_path, capsys, path, flags):
    """The JSON document and the CSV rows of `verify` with --emit-csv,
    which prints and exits as it does without it."""
    csv = tmp_path / "out.csv"
    argv = ["--config", os.devnull, "verify", str(path), "--json", "-"] + flags
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--emit-csv", str(csv)]) == 0
    assert capsys.readouterr() == plain
    return json.loads(plain.out), [line.split(",") for line in csv.read_text().splitlines()[1:]]


@pytest.mark.parametrize("q, flags", [
    (2, ["--N", "48", "--orders", "48", "--mmax", "48"]),
    (10, ["--N", "40", "--orders", "40", "--epsilon", "0.5"]),
    (2, ["--N", "60", "--orders", "60", "--mmax", "60"]),
])
def test_verify_csv_bound_is_inf_outside_double_range(tmp_path, capsys, q, flags):
    """On q-Euler at these depths q^{N(N-1)/2} alone leaves double range
    from N = 46 (q = 2) or 26 (q = 10) on.  The bound cell is still M
    H^N / eps q^{N(N-1)/2} |t|^N at the fan's largest radius, summed in
    logs where a power overflows, and reads inf only where the bound
    itself leaves double range: from N = 50 on at q = 2, 27 at q = 10."""
    path = tmp_path / "euler.qde"
    path.write_text(EQUATIONS["euler"].replace("q=2", "q=%d" % q))
    doc, rows = _verify_csv(tmp_path, capsys, path, flags)
    r_max = 0.1  # the largest fan radius, 0.1 |lambda|
    finite = []
    for N, (cell, bound) in enumerate((row[0], row[2]) for row in rows):
        assert int(cell) == N
        log_bound = (math.log(doc["M"]) + N * math.log(doc["H"]) - math.log(doc["epsilon"])
                     + N * (N - 1) / 2.0 * math.log(q) + N * math.log(r_max))
        if log_bound < math.log(sys.float_info.max):
            assert float(bound) == pytest.approx(math.exp(log_bound), rel=1e-12), N
            finite.append(N)
        else:
            assert bound == "inf", N
    assert finite == list(range({2: 50, 10: 27}[q]))[:len(rows)]


def test_verify_csv_bound_is_empty_without_a_fan_point(tmp_path, capsys):
    """At q = 100 the disks at epsilon 0.95 cover the whole fan: verify
    exits 0 with no sample, and each bound cell is empty."""
    path = tmp_path / "euler.qde"
    path.write_text(EQUATIONS["euler"].replace("q=2", "q=100"))
    doc, rows = _verify_csv(tmp_path, capsys, path, ["--epsilon", "0.95"])
    assert doc["samples"] == 0 and len(rows) == 13
    assert all(row[2] == "" for row in rows)


def test_verify_csv_bound_is_zero_where_m_is_zero(tmp_path, capsys):
    """A corpus document whose solution is X = 0 fits M = 0: every bound
    cell reads 0.0, also where q^{N(N-1)/2} leaves double range (N = 39
    and 40)."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "corpus", "corpus-20240901-08.json")
    doc, rows = _verify_csv(tmp_path, capsys, path, ["--N", "40", "--orders", "40",
                                                     "--mmax", "40"])
    assert doc["M"] == 0.0 and len(rows) == 41
    assert all(row[2] == "0.0" for row in rows)


if __name__ == "__main__":
    old = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            old = json.load(fh)
    new = all_digests()
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print(key)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
