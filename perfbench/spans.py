"""Span recorder and per-layer instrumentation of the qsum modules.

Layers are measured from outside: each public function of interest is
wrapped where its callers look it up (the defining module and every
qsum module that imported it by name), so nothing inside `src/` changes.
A wrapped call opens a span whose parent is the span open at the time;
self time is a span's duration minus the durations of its direct
children.  Hot constructors are counted, not spanned, to keep the
tracing overhead bounded.
"""

import json
import math
import sys
import time
from array import array


class SpanRecorder:
    """Spans held in memory as parallel arrays (name id, parent index,
    start, end), folded into per-name totals only when asked."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(self.clock())
        self.current = idx
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self.current = self.parent[idx]

    def add(self, name, start, end, parent=-1):
        """Record a finished span directly; returns its index."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def __len__(self):
        return len(self.name)

    def self_times(self):
        """Per span: duration minus the summed durations of its children."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over every recorded span."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, s in enumerate(self.self_times()):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += s
        return out

    FIELDS = ("name", "parent", "start", "end", "self")

    def write(self, path):
        """All spans, written once as JSON lines: a header with the span
        names and FIELDS, then one array per span in index order, its
        name given as an index into the names."""
        selfs = self.self_times()
        name, parent, start, end = self.name, self.parent, self.start, self.end
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": self.FIELDS}) + "\n")
            fh.writelines("[%d,%d,%r,%r,%r]\n" % (name[i], parent[i], start[i], end[i], selfs[i])
                          for i in range(len(name)))


# (module, function) pairs timed as spans; the span name is "module.function"
SPANNED = [
    ("pipeline", "run_report"), ("pipeline", "size_parse_window"),
    ("pipeline", "analyze_conditions"),
    ("equation", "parse_equation"), ("equation", "from_json"), ("equation", "validate"),
    ("dsl", "parse_series"),
    ("newton", "newton_polygon"), ("newton", "check_shape"), ("newton", "check_interior"),
    ("newton", "check_order_floors"), ("newton", "reduced_coefficients"),
    ("newton", "check_nondegeneracy"), ("newton", "check_strong_margin"),
    ("newton", "characteristic_polynomial"), ("newton", "singular_directions"),
    ("newton", "direction_clearance"), ("newton", "durand_kerner"),
    ("formal", "solve_formal"), ("formal", "verify_formal"), ("formal", "gevrey_fit"),
    ("qborel", "borel_transform"), ("qborel", "borel_transformed_equation"),
    ("qborel", "continue_spiral"), ("qborel", "fit_spiral_bound"), ("qborel", "lead_roots"),
    ("qlaplace", "q_laplace_series"), ("qlaplace", "residual_check"),
    ("qlaplace", "asymptotic_check"), ("qlaplace", "zone_membership"),
    ("series", "divide"),
    ("cli", "main"), ("report_schema", "validate_report"),
]

# (module, class, method, span name)
SPANNED_METHODS = [
    ("series", "TruncatedSeries", "__add__", "series.add"),
    ("series", "TruncatedSeries", "__mul__", "series.mul"),
]


def _work(x):
    return len(x.coeffs) if hasattr(x, "coeffs") else 1


class Instrument:
    """Installs the span and counter wrappers into the loaded qsum modules
    and removes them again.  While `capture` is a dict, the arguments of
    one representative call per layer are kept in it for isolated timing."""

    def __init__(self, recorder):
        self.rec = recorder
        self.counters = {}
        self.capture = None
        self._undo = []

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # ------------------------------------------------------------ hooks

    def _after(self, name, args, kwargs, result):
        """Computed counters and argument capture for a finished call."""
        if name == "qlaplace.q_laplace_series":
            grid = args[0]
            self.count("qlaplace.kernel_terms", grid.m_max - grid.m_min + 1)
            self._keep(name, args, kwargs, first=True)
        elif name == "qborel.continue_spiral":
            self.count("qborel.grid_points", result.m_max - result.m_min + 1)
            self.count("qborel.march_steps", max(0, result.m_max - result.seed_top))
            self._keep(name, args, kwargs, first=True)
        elif name == "qlaplace.asymptotic_check":
            self.count("qlaplace.asym_points", len(result.samples))
            self._keep(name, args, kwargs, first=True)
        elif name == "series.divide":
            num, den = args[0], args[1]
            kt, kz = min(num.Kt, den.Kt), min(num.Kz, den.Kz)
            keys = kt * math.comb(kz - 1 + num.d, num.d)
            self.count("series.divide.window_keys", keys)
            self._keep(name, args, kwargs, work=keys * _work(den))
        elif name == "series.mul":
            self._keep(name, args, kwargs, work=_work(args[0]) * _work(args[1]))
        elif name == "formal.solve_formal":
            self._keep(name, args, kwargs, work=args[1])

    def _keep(self, name, args, kwargs, first=False, work=0):
        cap = self.capture
        if cap is None:
            return
        old = cap.get(name)
        if old is None or (not first and work > old[2]):
            cap[name] = (args, dict(kwargs), work)

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        rec = self.rec
        nid = rec.name_id(name)
        after = self._after

        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            after(name, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_init(self, key, fn, coeffs_key=None):
        counters = self.counters

        def __init__(self_, *args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            if coeffs_key is not None:
                coeffs = args[3] if len(args) > 3 else kwargs.get("coeffs")
                if coeffs:
                    counters[coeffs_key] = counters.get(coeffs_key, 0) + len(coeffs)
            fn(self_, *args, **kwargs)
        __init__.__wrapped__ = fn
        return __init__

    def _replace_everywhere(self, original, wrapper):
        """Rebind every name in a loaded qsum module that refers to `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qsum" or modname.startswith("qsum.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, original, wrapper):
        """Rebind every class attribute (e.g. __radd__) that is `original`."""
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def install(self):
        import qsum.cli  # noqa: F401  (loads every module that re-exports a layer)
        from qsum.scaled import QScaled
        from qsum.series import TruncatedSeries
        for modname, fname in SPANNED:
            mod = sys.modules["qsum." + modname]
            original = getattr(mod, fname)
            self._replace_everywhere(original, self._span(modname + "." + fname, original))
        for modname, clsname, meth, name in SPANNED_METHODS:
            cls = getattr(sys.modules["qsum." + modname], clsname)
            original = vars(cls)[meth]
            self._replace_method(cls, original, self._span(name, original))
        self._replace_method(TruncatedSeries, vars(TruncatedSeries)["__init__"],
                             self._counted_init("series.init.calls", vars(TruncatedSeries)["__init__"],
                                                coeffs_key="series.coeffs_in"))
        self._replace_method(QScaled, vars(QScaled)["__init__"],
                             self._counted_init("scaled.init.calls", vars(QScaled)["__init__"]))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)
