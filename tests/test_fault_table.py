"""The fault table of the `residual`, `asymptotic`, `formal_residual`
and `gevrey_certificate` verdicts: faults injected into a report's run,
and whether each verdict whose stage reads the fault flags it, on the
three benchmark DSL equations.

The faults:
  * "W+1": W(t, 0) + 1 at every point KernelSamples.origin gives, which
    only the asymptotic stage reads (acceptance criterion 4's fault);
  * "c*xi", c = 1e-8, 1e-6, 1e-4 and 1e-2: c lambda q^m added to
    u*(lambda q^m) at every grid index, which moves W by c t (the kernel
    inversion identity at n = 1).  The residual and the asymptotic stage
    read it;
  * "1e3*v37..40": the formal solution's scaled coefficients v_37..v_40
    multiplied by 1e3, which the formal checks read; the asymptotic
    stage reads v_0..v_12 only.

Each is injected after the continuation and before the stages that read
the grid, its kernel samples or the solution, so every per-index table
of the grid (SpiralGrid.constants, logq_sizes, ...) is filled from the
faulted values, and the grid from the unfaulted solution.  A (verdict,
fault) pair the verdict does not flag is listed in EXPECTED_UNDETECTED
with the ROADMAP item that will catch it.  The list only shrinks: an
item that catches a fault deletes its entry."""

import math

import pytest

from conftest import EULER_TEXT, EX2_TEXT, MIXED_D2_TEXT
from qsum.formal import FormalSolution
from qsum.pipeline import Options, Run
from qsum.qborel import ScaledSeries, SeedValues, SpiralGrid, _scaled_sum
from qsum.qlaplace import KernelSamples
from qsum.series import TruncatedSeries

SCALES = (1e-8, 1e-6, 1e-4, 1e-2)
FORMAL_FAULT = "1e3*v37..40"
# fault -> the verdicts whose stages read it
FAULTS = dict([("W+1", ("asymptotic",))]
              + [("%g*xi" % c, ("residual", "asymptotic")) for c in SCALES]
              + [(FORMAL_FAULT, ("formal_residual", "gevrey_certificate"))])
# (verdict, fault) -> the ROADMAP item that will flag it
EXPECTED_UNDETECTED = {
    # the residual gate is absolute, 1e-5: W moved by 1e-8 t or 1e-6 t
    # passes it (item 2: the residual's scale)
    ("residual", "1e-08*xi"): 2,
    ("residual", "1e-06*xi"): 2,
    # the fitted H absorbs a W moved by c t, and all pairs are used (item
    # 5: W on a second direction, whose grid is not faulted, differs by
    # c t; item 3's gate on H would also flag c = 1e-2)
    ("asymptotic", "1e-08*xi"): 5,
    ("asymptotic", "1e-06*xi"): 5,
    ("asymptotic", "0.0001*xi"): 5,
    ("asymptotic", "0.01*xi"): 5,
    # the certificate checks the norms against the Gevrey fit of those
    # same norms, which absorbs the fault (item 11: h from the
    # characteristic polynomial)
    ("gevrey_certificate", FORMAL_FAULT): 11,
}


def _w_plus_one(run):
    """Kernel samples of the run's grid whose W(t, 0) at every point is
    one more than the sum."""
    kernel = KernelSamples(run.grid)
    origin = kernel.origin
    kernel.origin = lambda t, k: (origin(t, k)[0] + 1.0, origin(t, k)[1])
    run.__dict__["kernel_samples"] = kernel


def _xi_on_the_grid(run, c):
    """The run's grid with c lambda q^m added to the value at every index
    m: the marched values at once, the seed values on first read, as the
    continuation sums them, each bound raised by |c lambda q^m|."""
    grid = run.grid
    q, lam, values, lnq = grid.q, grid.lam, grid.values, math.log(grid.q)

    def faulted(m):
        v = values[m]
        shift = TruncatedSeries.const(c * lam, v.series.d, v.series.Kt, v.series.Kz)
        return _scaled_sum(q, [v, ScaledSeries(shift, float(m))])
    seeded = SeedValues(faulted, values.low,
                        lambda m: math.log(q ** values.bounds[m] + abs(c * lam) * q ** m) / lnq)
    for m in range(grid.seed_top + 1, grid.m_max + 1):
        seeded[m] = faulted(m)
    run.__dict__["grid"] = SpiralGrid(lam, q, grid.m_min, grid.m_max, grid.seed_top, seeded,
                                      grid.lead_roots, grid.R1, grid.d)


def _scaled_tail(run):
    """The run's formal solution with v_37..v_40 multiplied by 1e3, after
    the continuation has read the unfaulted one."""
    run.grid
    sol = run.solution
    run.__dict__["solution"] = FormalSolution(
        sol.q, sol.count, sol.scaled[:37] + tuple(v * 1e3 for v in sol.scaled[37:41]), sol.R1,
        sol.d)


def _faulted_report(text, fault):
    run = Run(text, Options())
    if fault == "W+1":
        _w_plus_one(run)
    elif fault == FORMAL_FAULT:
        _scaled_tail(run)
    else:
        _xi_on_the_grid(run, float(fault.split("*")[0]))
    return run.report()


def test_every_undetected_entry_names_a_fault_its_verdict_reads():
    assert set(EXPECTED_UNDETECTED) <= {(v, f) for f, verdicts in FAULTS.items() for v in verdicts}
    assert set(EXPECTED_UNDETECTED.values()) <= {2, 3, 5, 11}


@pytest.mark.parametrize("text", [EULER_TEXT, EX2_TEXT, MIXED_D2_TEXT],
                         ids=["euler", "readme-d1", "mixed-d2"])
def test_fault_table(text):
    """Unfaulted, every verdict of the table passes.  Each fault moves the
    sections that read it, and each verdict that reads a fault fails on
    it unless the pair is expected undetected.  The c*xi faults move the
    residual by 0.1-0.3 c, which shows they reach W at every scale; the
    formal fault is flagged at order 37, its first, and leaves the
    asymptotic section as it was."""
    base = Run(text, Options()).report()
    assert {base.verdicts[v]["status"] for _, verdicts in FAULTS.items() for v in verdicts} == {
        "pass"}
    for fault, verdicts in FAULTS.items():
        report = _faulted_report(text, fault)
        if fault == FORMAL_FAULT:
            assert report.gevrey != base.gevrey and report.asymptotic == base.asymptotic
            assert report.verdicts["formal_residual"]["detail"].endswith("flagged orders 37")
        else:
            assert report.asymptotic != base.asymptotic, fault
        if fault.endswith("*xi"):
            c = float(fault.split("*")[0])
            assert 0.1 * c < report.residuals["max_absolute"] < 0.3 * c, fault
        for verdict in verdicts:
            want = "pass" if (verdict, fault) in EXPECTED_UNDETECTED else "fail"
            assert report.verdicts[verdict]["status"] == want, (verdict, fault)
