"""The benchmark's per-layer hooks (perfbench/spans.py) wrap qsum
functions looked up by name.  Installing them here makes a renamed or
removed function fail in the fast suite, and a traced report shows that
the pipeline still calls the wrapped names."""

import importlib.util
import os
import sys

import qsum.cli  # noqa: F401  (loads every module the hooks wrap)
from qsum.pipeline import Options

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")
EULER = "q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_instrument_installs_and_uninstalls():
    spans = _load_spans()
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
