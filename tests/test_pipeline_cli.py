import hashlib
import json
import os
import subprocess
import sys

import pytest

import qsum.pipeline
from qsum.cli import main
from qsum.errors import UsageError
from qsum.pipeline import Options, Run
from qsum.report_schema import validate_report

EULER = "q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1\n"
EX2 = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)\n"
BAD = "q=2; delta=1; m=1; d=0; eq: t*S^0(X) + t*S^1(X) = 1\n"


@pytest.fixture
def euler_file(tmp_path):
    p = tmp_path / "euler.qde"
    p.write_text(EULER)
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.qde"
    p.write_text(BAD)
    return str(p)


def run_cli(args):
    return main(list(args))


def test_report_end_to_end(tmp_path, euler_file):
    out = tmp_path / "report.json"
    code = run_cli(["report", euler_file, "--lambda", "1,0", "--orders", "40",
                    "--mmax", "40", "--epsilon", "0.3", "--N", "12",
                    "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert validate_report(doc) == []
    assert all(v["status"] == "pass" for k, v in doc["verdicts"].items())
    assert doc["polygon"]["m0"] == 0


def test_report_counts_the_resolved_remainder_pairs(tmp_path, euler_file):
    """Each asymptotic fit states how many (N, t) pairs it read and how
    many it dropped at or below W's rounding floor; the schema requires
    both, in the section and in every per-epsilon entry."""
    out = tmp_path / "report.json"
    assert run_cli(["report", euler_file, "--orders", "16", "--mmax", "16", "--N", "6",
                    "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    asym = doc["asymptotic"]
    for entry in [asym] + asym["per_epsilon"]:
        assert entry["pairs_used"] > 0 and entry["pairs_dropped"] >= 0
    assert asym["pairs_used"] + asym["pairs_dropped"] == 7 * asym["samples"]
    del asym["per_epsilon"][1]["pairs_dropped"]
    assert validate_report(doc) == [
        "/asymptotic/per_epsilon/1: required field 'pairs_dropped' missing"]


def test_report_exit_code_singular(tmp_path, euler_file):
    code = run_cli(["report", euler_file, "--lambda=-1,0", "--json", os.devnull])
    assert code == 3


def test_check_exit_code_condition(tmp_path, bad_file):
    code = run_cli(["check", bad_file, "--json", os.devnull])
    assert code == 2


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.qde"
    p.write_text("q=2; delta=1; m=1; d=0; eq: S^1(X = 1\n")
    assert run_cli(["check", str(p)]) == 5


def test_polygon_csv_and_json(tmp_path, euler_file):
    csv_path = tmp_path / "poly.csv"
    json_path = tmp_path / "poly.json"
    assert run_cli(["polygon", euler_file, "--emit-csv", str(csv_path),
                    "--json", str(json_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "j,alpha,ord_t,on_boundary,interior"
    doc = json.loads(json_path.read_text())
    assert doc["vertices"] == [[0, 0], [1, 1]]
    assert doc["slopes"] == [0.0, 1.0, "inf"]


def test_directions_json(tmp_path):
    p = tmp_path / "ex2.qde"
    p.write_text(EX2)
    out = tmp_path / "dir.json"
    assert run_cli(["directions", str(p), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["roots"] == [{"re": -2.0, "im": 0.0}]
    assert doc["rays"] == [pytest.approx(3.141592653589793)]


def test_solve_artifacts(tmp_path, euler_file):
    out = tmp_path / "solve.json"
    csv_path = tmp_path / "solve.csv"
    assert run_cli(["solve", euler_file, "--orders", "12",
                    "--json", str(out), "--emit-csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    assert doc["A"] == 1.0 and doc["h"] == 1.0
    assert csv_path.read_text().splitlines()[0] == "n,log10_norm,g_n"


def test_square_emits_standard_schema(tmp_path, euler_file):
    out = tmp_path / "sq.json"
    assert run_cli(["square", euler_file, "--json", str(out)]) == 0
    from qsum.equation import from_json
    sq = from_json(out.read_text())
    assert sq.q == pytest.approx(2.0 ** 0.25)
    assert {t.j for t in sq.terms} == {0, 2}


def test_verify_csv(tmp_path, euler_file):
    csv_path = tmp_path / "verify.csv"
    code = run_cli(["verify", euler_file, "--lambda", "1,0", "--orders", "30",
                    "--mmax", "30", "--epsilon", "0.3", "--N", "8",
                    "--emit-csv", str(csv_path), "--json", os.devnull])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "N,max_E_N,bound,rho_N"
    assert len(lines) == 10


def test_report_determinism(tmp_path, euler_file):
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(["report", euler_file, "--lambda", "1,0", "--orders", "25",
                        "--mmax", "25", "--N", "8", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_report(doc) == []
        del doc["timings"]  # quarantined; everything else must hash identically
        docs.append(hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest())
    assert docs[0] == docs[1]


def test_config_file_defaults(tmp_path, euler_file):
    cfg = tmp_path / "qsum.toml"
    cfg.write_text("orders = 10\nmmax = 12\nN = 6\n")
    out = tmp_path / "rep.json"
    code = run_cli(["--config", str(cfg), "report", euler_file,
                    "--lambda", "1,0", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    # flag absent: config wins over the built-in 40
    assert doc["equation"]["Kt"] == 11
    # flag present: flag wins over config
    out2 = tmp_path / "rep2.json"
    assert run_cli(["--config", str(cfg), "report", euler_file, "--lambda", "1,0",
                    "--orders", "15", "--json", str(out2)]) == 0
    assert json.loads(out2.read_text())["equation"]["Kt"] == 16


@pytest.mark.parametrize("text, message", [
    ("epsilom = 0.1\n", "line 1: unknown key 'epsilom'"),
    ("orders = 10\nmmax 12\n", "line 2: expected key = value, got 'mmax 12'")])
def test_config_mistakes_are_usage_errors(tmp_path, capsys, euler_file, text, message):
    cfg = tmp_path / "qsum.toml"
    cfg.write_text(text)
    assert run_cli(["--config", str(cfg), "report", euler_file, "--json", os.devnull]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: config %s " % cfg) and message in err and err.count("\n") == 1


@pytest.mark.parametrize("which", ["equation file", "config"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, euler_file, which):
    bad = tmp_path / "ff.txt"
    bad.write_bytes(EULER.encode() + b"\xff\n")
    argv = ["--config", str(bad), "check", euler_file] if which == "config" else ["check", str(bad)]
    assert run_cli(argv + ["--json", os.devnull]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: %s %s is not UTF-8: " % (which, bad))
    assert "byte 0xff" in err and err.count("\n") == 1


def test_an_equation_file_with_a_byte_order_mark_is_read_past_it(tmp_path, euler_file):
    """Editors on Windows start UTF-8 files with the mark U+FEFF; it is not
    part of the equation."""
    bom = tmp_path / "bom.qde"
    bom.write_bytes(b"\xef\xbb\xbf" + EULER.encode() + b"\n")
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    assert run_cli(["check", str(bom), "--json", str(got)]) == 0
    assert run_cli(["check", euler_file, "--json", str(want)]) == 0
    assert got.read_text() == want.read_text()


def test_a_config_file_with_a_byte_order_mark_is_read_past_it(tmp_path, euler_file):
    """The mark is not part of the first key."""
    cfg = tmp_path / "qsum.toml"
    cfg.write_bytes(b"\xef\xbb\xbforders = 10\n")
    out = tmp_path / "rep.json"
    assert run_cli(["--config", str(cfg), "report", euler_file, "--mmax", "10", "--N", "6",
                    "--json", str(out)]) == 0
    assert json.loads(out.read_text())["equation"]["Kt"] == 11


@pytest.mark.parametrize("cmd", ["report", "verify"])
def test_an_N_that_checks_no_order_is_a_usage_error(tmp_path, capsys, euler_file, cmd):
    """With N = 0 the asymptotic check would read no order and pass."""
    cfg = tmp_path / "qsum.toml"
    cfg.write_text("N = 0\n")
    for argv in ([cmd, euler_file, "--N", "0"], ["--config", str(cfg), cmd, euler_file]):
        assert run_cli(argv + ["--orders", "8", "--mmax", "8", "--json", os.devnull]) == 5
        assert capsys.readouterr().err == "error: N must be at least 1 (got 0)\n"


def test_the_default_config_file_is_optional_and_checked(tmp_path, euler_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["check", euler_file, "--json", os.devnull]) == 0
    (tmp_path / "qsum.toml").write_text("zorder = 3\n")
    assert run_cli(["check", euler_file, "--json", os.devnull]) == 0
    (tmp_path / "qsum.toml").write_text("zorder = 3\nzroder = 4\n")
    assert run_cli(["check", euler_file, "--json", os.devnull]) == 5


def test_console_entry_point(euler_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qsum.cli", "check", euler_file, "--json", os.devnull],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_resum_value(tmp_path, euler_file):
    out = tmp_path / "w.json"
    assert run_cli(["resum", euler_file, "--lambda", "1,0", "--t", "0.1,0",
                    "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["W"]["re"] == pytest.approx(0.9150287008940956, rel=1e-9)


def test_grid_too_short_exit_code(tmp_path, euler_file):
    # |t| ~ 0.1 samples need the kernel sum to reach m ~ 25; mmax=4 cannot
    code = run_cli(["report", euler_file, "--lambda", "1,0", "--orders", "20",
                    "--mmax", "4", "--N", "6", "--json", os.devnull])
    assert code == 4



CONDITION_FAILURES = {
    # no coefficient of t-order 0: the shape fails before anything is solved
    "shape": "q=2; delta=1; m=2; d=1; eq: t*S^1(X) + t*S^2(X) + t^2*S^1 Dz1^1(X) = 1\n",
    # the shape holds, but the corner coefficient vanishes at the origin
    "nondegeneracy": "q=2; delta=1; m=1; d=1; eq: t*S^1(X) + z1*S^0(X) = 1\n",
}


@pytest.mark.parametrize("failing", sorted(CONDITION_FAILURES))
@pytest.mark.parametrize("cmd", ["report", "borel", "continue", "resum", "verify",
                                 "growth", "directions", "square"])
def test_failed_condition_exit_code(tmp_path, capsys, cmd, failing):
    p = tmp_path / "eq.qde"
    p.write_text(CONDITION_FAILURES[failing])
    extra = ["--t", "0.1,0"] if cmd == "resum" else []
    code = run_cli([cmd, str(p), "--json", os.devnull] + extra)
    if cmd == "square" and failing == "nondegeneracy":
        assert code == 0  # the squared form needs only the shape
    else:
        assert code == 2
        assert "conditions failed: " + failing in capsys.readouterr().err


# `solve` reads no condition: these inputs stop in the recursion instead
SOLVE_FAILURES = {
    "shape": "error: no coefficient of t-order 0; the recursion has no diagonal\n",
    "nondegeneracy": "error: no unique formal coefficient at order 0\n",
}


@pytest.mark.parametrize("failing", sorted(CONDITION_FAILURES))
def test_solve_reads_no_condition(tmp_path, capsys, failing):
    p = tmp_path / "eq.qde"
    p.write_text(CONDITION_FAILURES[failing])
    assert run_cli(["solve", str(p), "--json", os.devnull]) == 4
    assert capsys.readouterr().err == SOLVE_FAILURES[failing]


def test_failed_verdict_prints_its_reasons(euler_file, capsys):
    # at so small an epsilon the normalized remainders cannot settle
    assert run_cli(["verify", euler_file, "--epsilon", "1e-300", "--json", "-"]) == 4
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["verdict"] == "fail"
    assert captured.err == "error: asymptotic verdict fail: %s\n" % "; ".join(doc["reasons"])
    assert "normalized remainders trend upward" in captured.err


# the derivative term's coefficient z1 lies outside the requested window
# Kz=1, but not outside the padded window the solving views use, where the
# term sits on the polygon's boundary
TRUNCATED_TERM = "q=2; delta=1; m=1; d=1; eq: t*S^1(X) + S^0(X) + z1*S^0 Dz1^1(X) = 1\n"


@pytest.mark.parametrize("cmd", ["report", "borel", "continue", "resum", "verify", "growth"])
def test_conditions_read_on_the_padded_equation(tmp_path, capsys, cmd):
    p = tmp_path / "eq.qde"
    p.write_text(TRUNCATED_TERM)
    extra = ["--t", "0.1,0"] if cmd == "resum" else []
    assert run_cli(["check", str(p), "--zorder", "1", "--json", os.devnull]) == 0
    capsys.readouterr()
    code = run_cli([cmd, str(p), "--zorder", "1", "--json", os.devnull] + extra)
    assert code == 2
    assert "on the padded equation" in capsys.readouterr().err


# the derivative term's coefficient starts at z-degree 2: the window-sizing
# probe must see the term, or the solve runs out of z-window
def test_derivative_term_above_z_degree_1_pads_the_window(tmp_path):
    p = tmp_path / "eq.qde"
    p.write_text("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*z1^2*S^1 Dz1^1(X) = 1/(1-z1)\n")
    assert run_cli(["report", str(p), "--orders", "20", "--mmax", "20", "--N", "8",
                    "--json", os.devnull]) == 0


def test_derivative_term_above_z_degree_14_pads_a_wide_requested_window(tmp_path):
    # the window probe must see every term the requested window holds
    p = tmp_path / "eq.qde"
    p.write_text("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*z1^14*S^1 Dz1^1(X) = 1/(1-z1)\n")
    assert run_cli(["report", str(p), "--zorder", "20", "--orders", "20", "--mmax", "20",
                    "--N", "8", "--json", os.devnull]) == 0


USAGE_ERRORS = {
    "missing argument": ["check"],
    "bad int flag": ["check", "{euler}", "--orders", "x"],
    "unknown subcommand": ["nosuch", "{euler}"],
    "bad config value": ["--config", "{config}", "check", "{euler}"],
    "config is a directory": ["--config", "{tmp}", "check", "{euler}"],
    "epsilon at the disjointness threshold": ["verify", "{euler15}", "--orders", "10",
                                              "--mmax", "10", "--N", "6"],
    "epsilon at the disjointness threshold, report": ["report", "{euler15}", "--orders", "10",
                                                      "--mmax", "10", "--N", "6"],
    "N above orders": ["verify", "{euler}", "--orders", "6", "--N", "8"],
    "t at the origin": ["resum", "{euler}", "--t", "0,0"],
    "t is nan": ["resum", "{euler}", "--t", "nan,0"],
    "t is infinite": ["resum", "{euler}", "--t", "inf,0"],
    "t beyond double range above lambda": ["resum", "{euler}", "--t", "1e308,0"],
    "t beyond double range below lambda": ["resum", "{euler}", "--t", "1e-320,0"],
    "t inside an excluded disk": ["resum", "{euler}", "--t=-1.05,0"],
    "t near an excluded disk": ["resum", "{euler}", "--t=-1.115,0"],
    "negative orders": ["check", "{euler}", "--orders", "-1"],
    "zero orders": ["report", "{euler}", "--orders", "0"],
    "negative mmax": ["report", "{euler}", "--mmax", "-3"],
    "negative N": ["report", "{euler}", "--N", "-1"],
    "negative zorder": ["check", "{euler}", "--zorder", "-2"],
    "zero epsilon": ["verify", "{euler}", "--epsilon", "0"],
    "negative epsilon": ["verify", "{euler}", "--epsilon", "-0.1"],
    "nan epsilon": ["verify", "{euler}", "--epsilon", "nan"],
    "zero lambda, z-derivatives": ["report", "{ex2}", "--lambda", "0,0", "--orders", "8",
                                   "--mmax", "8", "--N", "4"],
    "zero lambda": ["report", "{euler}", "--lambda", "0,0", "--orders", "8", "--mmax", "8",
                    "--N", "4"],
    "equation file not UTF-8": ["check", "{undecodable}"],
    "config file not UTF-8": ["--config", "{undecodable_config}", "check", "{euler}"],
    "DSL nested too deeply": ["check", "{deep}"],
    "JSON nested too deeply": ["check", "{deep_json}"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exit_code(tmp_path, euler_file, case):
    euler15 = tmp_path / "euler15.qde"
    euler15.write_text(EULER.replace("q=2", "q=1.5"))  # threshold 0.2 < default epsilon 0.3
    ex2 = tmp_path / "ex2.qde"
    ex2.write_text(EX2)
    config = tmp_path / "bad.toml"
    config.write_text("orders = x\n")
    undecodable = tmp_path / "ff.qde"
    undecodable.write_bytes(EULER.encode() + b"\xff\n")
    undecodable_config = tmp_path / "ff.toml"
    undecodable_config.write_bytes(b"orders = 10\xff\n")
    deep = tmp_path / "deep.qde"
    deep.write_text(EULER.replace("= 1", "= " + "(" * 3000 + "1" + ")" * 3000))
    deep_json = tmp_path / "deep.json"
    deep_json.write_text(_euler_doc(rhs="@").replace('"@"', "[" * 5000 + "]" * 5000))
    names = {"euler": euler_file, "euler15": str(euler15), "ex2": str(ex2),
             "config": str(config), "tmp": str(tmp_path), "undecodable": str(undecodable),
             "undecodable_config": str(undecodable_config), "deep": str(deep),
             "deep_json": str(deep_json)}
    argv = [a.format(**names) for a in USAGE_ERRORS[case]]
    proc = subprocess.run([sys.executable, "-m", "qsum.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _euler_doc(**changes):
    from qsum.equation import parse_equation, to_json
    doc = json.loads(to_json(parse_equation(EULER, Kt=8, Kz=1)))
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    (EULER.replace("delta=1", "delta=1/0"), "error: line 1, col 14: zero denominator\n"),
    (_euler_doc(m=True), "error: /m: m must be a positive integer\n"),
    (_euler_doc(delta={"num": 1, "den": True}),
     "error: /delta: delta must be {num, den} with integer entries\n")])
def test_malformed_header_exit_code(tmp_path, capsys, text, message):
    p = tmp_path / "eq.txt"
    p.write_text(text)
    assert run_cli(["report", str(p), "--orders", "8", "--mmax", "8", "--N", "4"]) == 5
    assert capsys.readouterr().err == message


def test_epsilon_is_checked_before_the_solve():
    run = Run(EULER.replace("q=2", "q=1.5"), Options(orders=10, mmax=10, n_check=6))
    with pytest.raises(UsageError, match="epsilon 0.3 not below the disk-disjointness"):
        run.report()
    assert not {"solution", "borel", "grid", "residuals", "asymptotic"} & set(vars(run))


@pytest.mark.parametrize("cmd", ["report", "verify"])
def test_n_above_orders_is_checked_before_the_solve(euler_file, capsys, monkeypatch, cmd):
    def unsolvable(eq, n_max):
        raise AssertionError("solved")
    monkeypatch.setattr(qsum.pipeline, "solve_formal", unsolvable)
    assert run_cli([cmd, euler_file, "--orders", "10", "--json", os.devnull]) == 5
    assert capsys.readouterr().err == "error: remainder depth 12 exceeds the computed formal order 10\n"


@pytest.mark.parametrize("cmd", ["check", "directions", "borel", "square", "resum", "growth",
                                 "report"])
def test_only_the_csv_views_take_emit_csv(tmp_path, euler_file, capsys, cmd):
    csv = tmp_path / "x.csv"
    argv = [cmd, euler_file, "--emit-csv", str(csv), "--json", os.devnull]
    if cmd == "resum":
        argv += ["--t", "0.1,0"]
    assert run_cli(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--emit-csv" in err
    assert not csv.exists()


def test_resum_far_below_lambda(euler_file, capsys):
    """The grid sums its low indices on demand: W at |t| = 1e-12 |lambda|,
    whose kernel peak lies near m = -40, still resums, and at 1e-30 the
    grid ends before the kernel terms decay, as before."""
    assert run_cli(["resum", euler_file, "--t", "1e-12,0", "--json", os.devnull]) == 0
    assert run_cli(["resum", euler_file, "--t", "1e-30,0", "--json", os.devnull]) == 4
    assert capsys.readouterr().err == (
        "error: kernel terms not yet decaying at the lower end of the grid\n")


def test_resum_far_from_lambda_at_a_large_q_is_a_kernel_error(tmp_path, capsys):
    # the zone scan at |t| = 1e250 reaches q^4 = 1e400, beyond double range
    p = tmp_path / "bigq.qde"
    p.write_text(EULER.replace("q=2", "q=1e100"))
    assert run_cli(["resum", str(p), "--orders", "1", "--mmax", "2", "--t", "1e250,0",
                    "--json", os.devnull]) == 4
    assert capsys.readouterr().err == (
        "error: kernel terms not yet decaying at the upper end of the grid\n")


@pytest.mark.parametrize("cmd", ["report", "verify"])
def test_failed_condition_comes_before_the_epsilon_check(tmp_path, capsys, cmd):
    p = tmp_path / "eq.qde"
    p.write_text(CONDITION_FAILURES["shape"].replace("q=2", "q=1.5"))
    assert run_cli([cmd, str(p), "--json", os.devnull]) == 2
    assert "conditions failed: shape" in capsys.readouterr().err


def test_non_finite_coefficient_exit_code(tmp_path):
    # the right-hand side's coefficients overflow in the formal solve
    p = tmp_path / "big.qde"
    p.write_text("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1e300/(1-z1)\n")
    proc = subprocess.run([sys.executable, "-m", "qsum.cli", "report", str(p), "--orders", "20",
                           "--mmax", "20", "--json", os.devnull], capture_output=True, text=True)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: non-finite coefficient\n"


def test_growth_of_a_zero_solution_exit_code(tmp_path, capsys):
    p = tmp_path / "zero.qde"
    p.write_text("q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 0\n")
    assert run_cli(["growth", str(p), "--orders", "10", "--mmax", "10", "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["C"] == 0.0


@pytest.mark.parametrize("extra", [["--mmax", "40"], ["--mmax", "80"], ["--mmax", "100"],
                                   ["--mmax", "200", "--orders", "5"]],
                         ids=["40", "80", "100", "200-orders-5"])
def test_growth_of_q_euler_is_its_spiral_bound(euler_file, capsys, extra):
    # |u*(2^m)| = 1/(1 + 2^m): C = 1/2 at m = 0 and H = 1 on every grid length
    assert run_cli(["growth", euler_file, "--json", "-"] + extra) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["C"], doc["H"]) == (0.5, 1.0)


def test_help_exit_code():
    proc = subprocess.run([sys.executable, "-m", "qsum.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
