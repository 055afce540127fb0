"""Workload inputs for the qsum benchmark.

Every input is a (key, kind, payload) triple: `kind` is "dsl" for an
equation text run through `run_report`, or "json" for an equation
document run through `python -m qsum.cli report`.  The key names the
input in the reference file.  Inputs depend only on the workload name
and its fixed options; `--seed` chooses the order in which they run.

The `corpus-cli` documents are committed under perfbench/corpus/, so a
change to qsum's corpus generator or JSON writer does not change what is
measured; `generate_corpus` rewrites them (`run.py --record`).
"""

import math
import os

from qsum.pipeline import Options

EULER = "q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1"
README_D1 = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)"
MIXED_D2 = "q=2; delta=1; m=2; d=2; eq: S^1(X) + t*S^2(X) + t^2*z2*S^0 Dz1^1 Dz2^1(X) = 1 + z1*z2"

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
CORPUS_SEED = 20240901
CORPUS_COUNT = 12
CLI_ORDERS = 20
CLI_MMAX = 20

WORKLOADS = ("euler", "zseries", "corpus-cli")


def options(workload):
    """The fixed pipeline options of a workload (CLI defaults otherwise)."""
    if workload == "corpus-cli":
        return Options(orders=CLI_ORDERS, mmax=CLI_MMAX)
    return Options()


def cli_args(path, opt):
    """`qsum report` arguments that reproduce `opt` for an equation file."""
    return ["report", path, "--orders", str(opt.orders), "--mmax", str(opt.mmax)]


def corpus_path(key):
    return os.path.join(CORPUS_DIR, key + ".json")


def corpus_keys():
    return ["corpus-%d-%02d" % (CORPUS_SEED, i) for i in range(CORPUS_COUNT)]


# ---------------------------------------------------------------- generator (--record only)

def _probe_span(eq, opt):
    """The march span size_parse_window derives from a small probe solve."""
    from qsum.formal import solve_formal
    from qsum.qborel import borel_transform
    probe_kz = 14
    alpha_max = eq.max_alpha()
    probe = _rewindow(eq, eq.Kt, probe_kz)
    probe_orders = max(2, min(opt.orders, (probe_kz - 2) // alpha_max))
    u = borel_transform(solve_formal(probe, probe_orders))
    if math.isfinite(u.radius_est) and u.radius_est > 0:
        seed_est = math.floor(math.log(0.5 * u.radius_est / abs(complex(opt.lam)), eq.q))
    else:
        seed_est = 0
    return opt.mmax - min(seed_est, 0) + 4


def _rewindow(eq, Kt, Kz):
    """The same polynomial equation stored in another window."""
    from qsum.equation import Equation, Term
    terms = tuple(Term(t.j, t.alpha, t.coeff.with_window(Kt, Kz)) for t in eq.terms)
    return Equation(eq.q, eq.delta, eq.m, eq.d, terms, eq.rhs.with_window(Kt, Kz), eq.R)


def sized_json(eq, opt):
    """JSON text for `eq` with the z-window padded as size_parse_window
    pads DSL text: alpha_max * (orders + march span) above the requested Kz."""
    from qsum.equation import to_json
    alpha_max = eq.max_alpha()
    if alpha_max == 0:
        kz = max(opt.Kz, 1)
    else:
        kz = opt.Kz + alpha_max * (opt.orders + _probe_span(eq, opt))
    return to_json(_rewindow(eq, opt.kt(), kz))


def generate_corpus():
    """Write the corpus-cli documents from qsum.corpus."""
    from qsum.corpus import corpus
    opt = options("corpus-cli")
    # generated at Kz=12, above every z-degree the generator draws, so the
    # coefficients are exact polynomials that survive the re-windowing
    eqs = corpus(CORPUS_COUNT, CORPUS_SEED, Kt=opt.kt(), Kz=12)
    os.makedirs(CORPUS_DIR, exist_ok=True)
    for key, eq in zip(corpus_keys(), eqs):
        with open(corpus_path(key), "w", encoding="utf-8") as fh:
            fh.write(sized_json(eq, opt))


# ---------------------------------------------------------------- inputs of a run

def build(workload):
    """All inputs of a workload, in their canonical order."""
    if workload == "euler":
        return [("euler", "dsl", EULER)]
    if workload == "zseries":
        return [("readme-d1", "dsl", README_D1), ("mixed-d2", "dsl", MIXED_D2)]
    if workload == "corpus-cli":
        items = []
        for key in corpus_keys():
            with open(corpus_path(key), encoding="utf-8") as fh:
                items.append((key, "json", fh.read()))
        return items
    raise ValueError("unknown workload %r" % workload)
