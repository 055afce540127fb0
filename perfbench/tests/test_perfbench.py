"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

The smoke tests run every workload briefly in both modes (about a minute
and a half in all) and check that each emits exactly the metrics
BENCHMARK.json names.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import clock  # noqa: E402
import spans  # noqa: E402


class SelfTimeTest(unittest.TestCase):

    def test_nested_spans(self):
        rec = spans.SpanRecorder()
        root = rec.add("root", 0.0, 10.0)
        a = rec.add("a", 1.0, 4.0, parent=root)
        b = rec.add("b", 5.0, 9.0, parent=root)
        rec.add("leaf", 6.0, 8.0, parent=b)
        rec.add("leaf", 2.0, 2.5, parent=a)
        self.assertEqual(rec.self_times(), [3.0, 2.5, 2.0, 2.0, 0.5])
        summary = rec.summary()
        self.assertEqual(summary["leaf"], {"calls": 2, "total_s": 2.5, "self_s": 2.5})
        self.assertEqual(summary["root"]["self_s"], 3.0)
        # self times partition the root interval
        self.assertAlmostEqual(sum(r["self_s"] for r in summary.values()), 10.0)

    def test_open_close_links_parents(self):
        ticks = iter(range(100))
        rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
        outer = rec.open(rec.name_id("outer"))      # t=0
        inner = rec.open(rec.name_id("inner"))      # t=1
        rec.close(inner)                            # t=2
        rec.close(outer)                            # t=3
        self.assertEqual(list(rec.parent), [-1, outer])
        self.assertEqual(rec.current, -1)
        self.assertEqual(rec.self_times(), [2.0, 1.0])

    def test_write_once(self):
        rec = spans.SpanRecorder()
        root = rec.add("root", 0.0, 4.0)
        rec.add("leaf", 1.0, 2.0, parent=root)
        path = os.path.join(tempfile.mkdtemp(), "spans.jsonl")
        try:
            rec.write(path)
            with open(path, encoding="utf-8") as fh:
                header, *rows = [json.loads(line) for line in fh]
        finally:
            shutil.rmtree(os.path.dirname(path))
        self.assertEqual(header, {"names": ["root", "leaf"], "fields": list(spans.SpanRecorder.FIELDS)})
        self.assertEqual(rows, [[0, -1, 0.0, 4.0, 3.0], [1, 0, 1.0, 2.0, 1.0]])


class CalibrationTest(unittest.TestCase):

    def test_each_stretch_counts_at_its_neighbouring_probes(self):
        ref = clock.PROBE_REF_S
        meter = clock.Meter()
        # a probe at normal speed before the call, one at half speed inside
        # it and one at normal speed after it
        meter.probes = [(0.0, ref), (2.0, 2 * ref), (4.0, ref)]
        t0, t1 = 1.0, 3.0
        expected = (2.0 - t0) * 2 / 3 + (t1 - 2.0 - 2 * ref) * 2 / 3
        self.assertAlmostEqual(meter.seconds(t0, t1), expected)
        # stretches before the first and after the last probe use that probe
        self.assertAlmostEqual(meter.seconds(-1.0, 0.0), 1.0)
        self.assertAlmostEqual(meter.seconds(4.0 + ref, 5.0 + ref), 1.0)


class ChildProbeTest(unittest.TestCase):

    def test_child_probes_itself_and_keeps_its_exit_code(self):
        tmp = tempfile.mkdtemp()
        try:
            meter = clock.Meter()
            t0 = time.perf_counter()
            proc = meter.run_child(["-c", "import sys; sum(range(10**6)); sys.exit(3)"],
                                   os.path.join(tmp, "probes.json"), cwd=tmp)
            t1 = time.perf_counter()
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(proc.returncode, 3)
        self.assertGreaterEqual(len(meter.probes), 2)
        self.assertTrue(all(t0 <= s < t1 for s, _ in meter.probes))
        self.assertGreater(meter.seconds(t0, t1), 0.0)


class TailRuleTest(unittest.TestCase):

    def test_ten_samples_beyond(self):
        xs = [float(i) for i in range(1, 26)]          # 25 samples
        value, pct, n = check.tail(list(reversed(xs)))
        self.assertEqual(value, 15.0)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertEqual((pct, n), (60.0, 25))

    def test_eleven_samples(self):
        value, pct, n = check.tail([float(i) for i in range(11)])
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples(self):
        self.assertEqual(check.tail([3.0, 1.0, 2.0]), (1.0, 0.0, 3))

    def test_mix_scales_each_input_to_its_median(self):
        per_input = {"fast": [1.0] * 12, "slow": [3.0] * 12}
        self.assertEqual(check.mix_p50(per_input), 2.0)
        value, pct, n = check.mix_tail(per_input)
        self.assertEqual((value, n), (2.0, 24))


class OutcomeTest(unittest.TestCase):

    def test_verdict_regression_and_drift(self):
        ref = {"exit": 0, "error": None,
               "report": {"verdicts": {"a": {"status": "pass"}}, "x": [1.0, 2.0]}}
        same = {"exit": 0, "error": None,
                "report": {"verdicts": {"a": {"status": "pass"}}, "x": [1.0, 2.0],
                           "timings": {"parse": 1.0}}}
        worse = {"exit": 0, "error": None,
                 "report": {"verdicts": {"a": {"status": "fail"}}, "x": [1.0, 2.2]}}
        self.assertEqual(check.regressions(same, ref), [])
        self.assertEqual(check.drift(same, ref), 0.0)
        self.assertEqual(len(check.regressions(worse, ref)), 1)
        self.assertAlmostEqual(check.drift(worse, ref), 0.2 / 2.2)

    def test_exit_codes_rank(self):
        crash = {"exit": 1, "error": "ValueError", "report": None}
        mapped = {"exit": 5, "error": "error", "report": None}
        self.assertEqual(check.regressions(mapped, crash), [])
        self.assertEqual(len(check.regressions(crash, mapped)), 1)
        self.assertEqual(check.error_type("Traceback...\nValueError: bad\n"), "ValueError")
        self.assertEqual(check.error_type("error: grid too short\n"), "error")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def check_workload(self, workload, trace):
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in names))
        for m in names:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_euler(self):
        self.check_workload("euler", 0)
        self.check_workload("euler", 1)

    def test_zseries(self):
        self.check_workload("zseries", 0)
        self.check_workload("zseries", 1)

    def test_corpus_cli(self):
        self.check_workload("corpus-cli", 0)
        self.check_workload("corpus-cli", 1)

    def test_refuses_without_sources(self):
        work = os.path.join(ROOT, ".bench_work")
        os.makedirs(work, exist_ok=True)
        bare = tempfile.mkdtemp(dir=work)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(["--workload", "euler", "--seed", "1", "--seconds", "1", "--trace", "0"],
                        cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
