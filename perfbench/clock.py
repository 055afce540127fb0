"""Wall-clock timing calibrated against the host's current speed.

Shared hosts change speed from moment to moment: on the 2-CPU host this
benchmark was written on, every pure-Python loop, qsum reports included,
ran up to 1.5x slower for stretches of a fraction of a second to several
seconds, which moved the median of a 30-second run by 40%.  So while a
timed call runs, a timer signal runs a short fixed loop (a probe) every
PROBE_INTERVAL_S in the same process; one probe also runs just before and
just after the call.  The call's calibrated time is its wall time minus
the probes that ran inside it, each stretch between two probes times
PROBE_REF_S over the mean of those two probe times.  It reads as seconds
on a host where the probe takes PROBE_REF_S.
Measured on that host, the per-report scatter of q-Euler fell from 15%
(raw) to 4%.  The benchmark keeps the raw figures alongside.

A child process probes itself the same way: `Meter.run_child` starts

    python3 perfbench/clock.py PROBES_FILE -m MODULE ARGS...
    python3 perfbench/clock.py PROBES_FILE -c CODE

which runs the module or code under `Meter.run` and leaves its probes in
PROBES_FILE.  Probing from the parent instead would take CPU time from
the child; probing only before and after the child measured a speed
that did not follow the child's (on that host it doubled the scatter of
a CLI report, from 7% to 15%).  perf_counter is CLOCK_MONOTONIC, so the
child's probe times compare with the parent's.
"""

import json
import os
import runpy
import signal
import subprocess
import sys
import time

PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0005


def probe_loop():
    """A fixed mix of the interpreter work qsum does: complex arithmetic,
    tuple keys and dict updates (about half a millisecond)."""
    acc = 0j
    table = {}
    for i in range(600):
        z = complex(i, 1.0) * (0.5 + 0.25j)
        acc += z / (1.0 + abs(z))
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0j) + z
    return acc


class Meter:
    """Runs calls with speed probes around and inside them."""

    def __init__(self):
        self.probes = []            # (start, seconds) of each probe of the last call

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_loop()
        self.probes.append((t0, time.perf_counter() - t0))

    def run(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), probed; the probes are left in self.probes."""
        self.probes = []
        self._probe()
        old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self._probe()

    def run_child(self, python_args, probes_path, **kwargs):
        """subprocess.run of a Python child (`python_args` is ["-m", module,
        ...] or ["-c", code]) that probes itself; its probes become this
        meter's probes."""
        if os.path.exists(probes_path):
            os.remove(probes_path)
        cmd = [sys.executable, os.path.abspath(__file__), probes_path] + list(python_args)
        proc = subprocess.run(cmd, **kwargs)
        with open(probes_path, encoding="utf-8") as fh:
            self.probes = [tuple(p) for p in json.load(fh)]
        return proc

    def factor(self):
        """PROBE_REF_S over the mean probe time of the last call."""
        return PROBE_REF_S * len(self.probes) / sum(d for _, d in self.probes)

    def seconds(self, t0, t1):
        """Calibrated seconds of the interval [t0, t1) of the last call,
        without its probes.  Each stretch between two probes counts at the
        mean speed of those two; a stretch before the first or after the
        last probe counts at that probe's speed."""
        probes = sorted(self.probes)
        edges = [(t0, probes[0][1])] + [(s + d, d) for s, d in probes]
        total = 0.0
        for (a, da), (b, db) in zip(edges, probes + [(t1, probes[-1][1])]):
            a, b = max(a, t0), min(b, t1)
            if b > a:
                total += (b - a) * 2.0 * PROBE_REF_S / (da + db)
        return total


def _child(probes_path, mode, target, *args):
    """Run `-m module args` or `-c code` as python would, under Meter.run."""
    sys.argv = [target if mode == "-m" else "-c"] + list(args)
    sys.path[0] = os.getcwd() if mode == "-m" else ""
    meter = Meter()
    try:
        if mode == "-m":
            meter.run(runpy.run_module, target, run_name="__main__", alter_sys=True)
        else:
            meter.run(exec, compile(target, "<string>", "exec"), {"__name__": "__main__"})
    finally:
        with open(probes_path, "w", encoding="utf-8") as fh:
            json.dump(meter.probes, fh)


if __name__ == "__main__":
    _child(*sys.argv[1:])
