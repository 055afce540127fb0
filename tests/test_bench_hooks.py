"""The benchmark's per-layer hooks (perfbench/spans.py) wrap qsum
functions looked up by name.  Installing them here makes a renamed or
removed function fail in the fast suite, and a traced report shows that
the pipeline still calls the wrapped names.  The benchmark's reports are
checked against its recorded reference here too: no verdict may get
worse or change status, and the sections upstream of the kernel sum must
not move at all.  The residuals and the asymptotic section read W, which
the reference recorded with the direct-sum theta that the triple product
replaced; their floats are pinned again when the reference is
re-recorded."""

import functools
import gc
import importlib.util
import json
import math
import os
import sys

import qsum.cli  # noqa: F401  (loads every module the hooks wrap)
import qsum.pipeline
import qsum.qlaplace
from qsum.errors import UsageError
from qsum.pipeline import RESIDUAL_SAMPLES, Options, Run, run_report
from qsum.qlaplace import SpiralGeometry

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
EULER = "q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1"
# the report sections computed before any kernel sum
UPSTREAM = ("equation", "polygon", "directions", "gevrey", "spiral_bound")


def _load(name):
    """A perfbench module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  os.path.join(PERFBENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_instrument_installs_and_uninstalls():
    spans = _load("spans")
    originals = {(m, f): getattr(sys.modules["qsum." + m], f) for m, f in spans.SPANNED}
    inst = spans.Instrument(spans.SpanRecorder())
    inst.install()
    try:
        for (m, f), fn in originals.items():
            assert getattr(sys.modules["qsum." + m], f) is not fn, (m, f)
        sys.modules["qsum.pipeline"].run_report(EULER, Options(orders=10, mmax=10, n_check=6))
    finally:
        inst.uninstall()
    for (m, f), fn in originals.items():
        assert getattr(sys.modules["qsum." + m], f) is fn, (m, f)
    traced = set(inst.rec.summary())
    for name in ("pipeline.run_report", "pipeline.size_parse_window",
                 "pipeline.analyze_conditions", "equation.parse_equation",
                 "formal.solve_formal", "formal.verify_formal", "formal.gevrey_fit",
                 "qborel.continue_spiral", "qborel.fit_spiral_bound",
                 "qlaplace.residual_check", "qlaplace.asymptotic_check", "series.add"):
        assert name in traced, name


def test_reports_match_the_benchmark_reference():
    check, inputs = _load("check"), _load("inputs")
    for workload in ("euler", "zseries"):
        with open(os.path.join(PERFBENCH, "reference", workload + ".json"), encoding="utf-8") as fh:
            refs = json.load(fh)["inputs"]
        for key, _, text in inputs.build(workload):
            doc = run_report(text, inputs.options(workload)).to_dict()
            report = json.loads(json.dumps(check.stable_report(doc)))
            _assert_matches_reference(check, report, refs[key], key)


def _assert_matches_reference(check, report, ref, key):
    """No regression against the reference, no drift at all in the
    sections upstream of the kernel sum, and every verdict's status the
    same."""
    assert check.regressions({"exit": 0, "error": None, "report": report}, ref) == [], key
    upstream = {"exit": 0, "error": None, "report": {k: report[k] for k in UPSTREAM}}
    assert check.drift(upstream, {"report": {k: ref["report"][k] for k in UPSTREAM}}) == 0.0, key
    assert ({name: v["status"] for name, v in report["verdicts"].items()}
            == {name: v["status"] for name, v in ref["report"]["verdicts"].items()}), key


def _count_kernel_sums(monkeypatch):
    """The arguments with which the pipeline's kernel-sample tables sum
    W(t / q^k, 0) ("origin", (t, k)) and W's z-series ("series", (t,)),
    in call order.  origin keeps no memo, so each of its calls sums;
    series sums once per point."""
    summed = {"origin": [], "series": []}

    def recording(fill, points):
        def fill_and_record(*args):
            points.append(args)
            return fill(*args)
        return fill_and_record

    class Counting(qsum.qlaplace.KernelSamples):
        def __init__(self, grid):
            super().__init__(grid)
            assert not hasattr(self.origin, "__wrapped__")
            self.origin = recording(self.origin, summed["origin"])
            self.series = functools.cache(recording(self.series.__wrapped__, summed["series"]))

    monkeypatch.setattr(qsum.pipeline, "KernelSamples", Counting)
    return summed


def _fan_reads(run, epsilon):
    """The (t, t_c, k) of the lattice fan of one asymptotic stage of a run."""
    return qsum.qlaplace.lattice_fan(SpiralGeometry(run.grid.lam, epsilon, run.grid.q))


def _assert_exact_and_summed_once(workload, summed):
    """Each finished report matches the reference as
    _assert_matches_reference checks, and sums W once per (t_c, k) that
    the lattice fans of both epsilons of its asymptotic stage read, a
    sample point t = t_c / q^k each.  Returns the keys of the inputs whose epsilon is not
    below (q-1)/(q+1)."""
    check, inputs = _load("check"), _load("inputs")
    with open(os.path.join(PERFBENCH, "reference", workload + ".json"), encoding="utf-8") as fh:
        refs = json.load(fh)["inputs"]
    rejected = []
    for key, _, text in inputs.build(workload):
        summed.clear()
        run = Run(text, inputs.options(workload))
        try:
            doc = run.report().to_dict()
        except UsageError as exc:
            assert "not below the disk-disjointness threshold" in str(exc), key
            assert not summed, key
            rejected.append(key)
            continue
        report = json.loads(json.dumps(check.stable_report(doc)))
        _assert_matches_reference(check, report, refs[key], key)
        assert len(summed) == len(set(summed)), key
        reads = set()
        for rep in (run.asymptotic, run.asymptotic.half):
            fan = _fan_reads(run, rep.epsilon)
            assert [t for t, _, _ in fan] == rep.samples, key
            reads |= {(base, k) for _, base, k in fan}
        assert reads == set(summed), key
        assert len(run.asymptotic.half.samples) >= len(run.asymptotic.samples) > 0, key
    return rejected


def test_reports_equal_the_benchmark_reference_and_sum_each_point_once(monkeypatch):
    """The reports match the reference, and W at a sample point is summed
    once per run, for both epsilons."""
    summed = _count_kernel_sums(monkeypatch)["origin"]
    for workload in ("euler", "zseries"):
        assert _assert_exact_and_summed_once(workload, summed) == [], workload


def test_corpus_reports_equal_the_benchmark_reference_and_sum_each_point_once(monkeypatch):
    """The same on the 12 corpus documents, the benchmark inputs with dense
    divisors.  The 4 with q below 1.86 put the default epsilon 0.3 at or
    above (q-1)/(q+1) and are rejected before anything is summed."""
    summed = _count_kernel_sums(monkeypatch)["origin"]
    rejected = _assert_exact_and_summed_once("corpus-cli", summed)
    assert rejected == ["corpus-20240901-%02d" % i for i in (2, 7, 10, 11)]


def test_reports_build_each_row_and_residual_series_once(monkeypatch):
    """Each benchmark DSL report builds one remainder row per distinct
    point of its asymptotic stage's two fans, in the epsilon/2 fan's
    order, which holds the epsilon fan, and sums the residual kernel series once per
    distinct shifted point q^j t: at q = 2 the radii 0.05|lambda| and
    0.1|lambda| put t q of one sample on another."""
    inputs = _load("inputs")
    remainder_row = qsum.qlaplace.remainder_row
    rows, series = [], _count_kernel_sums(monkeypatch)["series"]

    def counting_row(q, values, w, t):
        rows.append(t)
        return remainder_row(q, values, w, t)

    monkeypatch.setattr(qsum.qlaplace, "remainder_row", counting_row)
    calls = {}
    for workload in ("euler", "zseries"):
        for key, _, text in inputs.build(workload):
            rows.clear()
            series.clear()
            run = Run(text, inputs.options(workload))
            run.report()
            assert rows == run.asymptotic.half.samples, key
            assert set(run.asymptotic.samples) <= set(rows), key
            q, shifts = run.equation.q, {term.j for term in run.equation.terms}
            shifted = {(s.t * q ** j,) for s in run.residuals.samples for j in shifts}
            assert sorted(series, key=repr) == sorted(shifted, key=repr), key
            calls[key] = len(rows), len(series)
    assert calls == {"euler": (96, 15), "readme-d1": (96, 15), "mixed-d2": (96, 20)}


def test_reports_test_each_zone_once_and_find_each_points_terms_once(cold_kernel_tables,
                                                                     monkeypatch):
    """Per benchmark DSL report, on no kernel table kept (the inputs
    share q = 2 and lambda = 1), zone_membership runs 58 times: once per
    (ray, class) of the one lattice fan, at epsilon/2, whose class base
    t_c places every point t_c / q^k of its class; once per class base
    at epsilon (the table's zone), which picks the epsilon fan's points
    from it; and once per residual sample, never at a shifted point q^j
    t, which lies in the disks its sample does.  residual_check reads the
    zones the residual fan left in the table, and the kernel sums do not
    test the zone again.  Each point's kept kernel terms are found once,
    and one triple product serves each kernel vector: one per (ray,
    class) of the lattice fan, 24 at q = 2, and one per distinct shifted
    residual point.  The test holds every vector it counts, so that no
    two share an id."""
    inputs = _load("inputs")
    zone_membership, kernel_vector = qsum.qlaplace.zone_membership, qsum.qlaplace._kernel_vector
    kernel_terms, theta_product = qsum.qlaplace._kernel_terms, qsum.qlaplace._theta_product
    lattice_fan = qsum.qlaplace.lattice_fan
    zones, vectors, found, products, held, fans = [], [], [], [], [], []

    def counting_zone(geom, t):
        zones.append((geom.epsilon, t))
        return zone_membership(geom, t)

    def counting_vector(q, lam, factors, t):
        vectors.append(t)
        return kernel_vector(q, lam, factors, t)

    def counting_terms(grid, vec, k):
        found.append((id(vec), k))
        held.append(vec)
        return kernel_terms(grid, vec, k)

    def counting_product(y, factors):
        products.append(y)
        return theta_product(y, factors)

    def counting_fan(geom):
        fans.append(geom.epsilon)
        return lattice_fan(geom)

    monkeypatch.setattr(qsum.qlaplace, "zone_membership", counting_zone)
    monkeypatch.setattr(qsum.qlaplace, "_kernel_vector", counting_vector)
    monkeypatch.setattr(qsum.qlaplace, "_kernel_terms", counting_terms)
    monkeypatch.setattr(qsum.qlaplace, "_theta_product", counting_product)
    monkeypatch.setattr(qsum.qlaplace, "lattice_fan", counting_fan)
    calls = {}
    for workload in ("euler", "zseries"):
        for key, _, text in inputs.build(workload):
            for counted in (zones, vectors, found, products, held, fans):
                counted.clear()
            cold_kernel_tables()
            run = Run(text, inputs.options(workload))
            run.residuals, run.asymptotic
            built = len(vectors)
            run.report()
            assert len(vectors) == built, key  # the rest of the report builds no vector
            calls[key] = len(zones), len(fans), len(products)
            tested, built_fans = list(zones), list(fans)  # before _fan_reads adds its own
            q, eps = run.equation.q, run.options.epsilon
            shifts = {term.j for term in run.equation.terms}
            bases = {base for _, base, _ in _fan_reads(run, eps)}
            samples = [s.t for s in run.residuals.samples]
            assert sorted(tested, key=repr) == sorted(
                [(eps / 2.0, t) for t in bases] + [(eps, t) for t in bases]
                + [(run.kernel_epsilon, t) for t in samples], key=repr), key
            assert built_fans == [eps / 2.0], key
            points = bases | {t * q ** j for t in samples for j in shifts}
            assert len(vectors) == len(set(vectors)) and set(vectors) == points, key
            assert len(found) == len(set(found)), key
            assert len(products) == len(vectors) and len(bases) == 24, key
            assert len(samples) == RESIDUAL_SAMPLES, key  # all the fan's points are kept
    assert calls == {"euler": (58, 1, 39), "readme-d1": (58, 1, 39), "mixed-d2": (58, 1, 44)}


def test_asymptotic_stage_tests_the_zone_inside_its_one_span(cold_kernel_tables):
    """The benchmark's spans time the whole asymptotic stage: with the
    hooks installed and no kernel table kept, the zone tests of its
    epsilon/2 fan and of the class bases at epsilon, 24 each at q = 2,
    run inside its one qlaplace.asymptotic_check span."""
    spans = _load("spans")
    run = Run(EULER, Options(orders=10, mmax=10, n_check=6))
    run.residuals  # its sample fan tests the zone outside any qlaplace span
    inst = spans.Instrument(spans.SpanRecorder())
    inst.install()
    try:
        run.report()
    finally:
        inst.uninstall()
    rec = inst.rec
    names = [rec.names[i] for i in rec.name]
    parents = [names[rec.parent[i]] if rec.parent[i] >= 0 else None
               for i, name in enumerate(names) if name == "qlaplace.zone_membership"]
    assert parents == ["qlaplace.asymptotic_check"] * 48
    assert names.count("qlaplace.asymptotic_check") == 1


def test_benchmark_reports_leave_no_reference_cycles():
    """The grid's on-demand tables hold its values, never the grid, so a
    report frees its grid by reference counting alone: with the cyclic
    collector off, the three benchmark DSL reports leave it nothing."""
    inputs = _load("inputs")
    jobs = [(text, inputs.options(workload)) for workload in ("euler", "zseries")
            for _, _, text in inputs.build(workload)]
    gc.collect()
    gc.disable()
    try:
        for text, opt in jobs:
            run_report(text, opt)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernel_table_sizes_are_the_largest_coefficients():
    """On each benchmark DSL grid, the kernel sums' log size of every
    index is the same float as that of the value's norm_max."""
    inputs = _load("inputs")
    for workload in ("euler", "zseries"):
        for key, _, text in inputs.build(workload):
            grid = Run(text, inputs.options(workload)).grid
            lnq = math.log(grid.q)
            for m in range(grid.m_min, grid.m_max + 1):
                v = grid.values[m]
                n = v.series.norm_max()
                size = v.qexp + math.log(n) / lnq if n > 0 else -math.inf
                assert grid.logq_sizes[m] == size, (key, m)
