"""The package runs on the standard library alone: every import in
src/qsum is relative or names a standard-library module.  Every name the
package exports resolves, and no module imports a name it never reads.
Importing the CLI loads neither `dataclasses` nor `inspect`, and the
read-only records refuse assignment."""

import ast
import os
import subprocess
import sys

import pytest

import qsum
from qsum.newton import characteristic_polynomial
from qsum.pipeline import Options, Run
from qsum.qlaplace import SpiralGeometry, theta, zone_membership
from qsum.square import substitute_square

from conftest import EULER_TEXT

SRC = os.path.dirname(qsum.__file__)


def _modules():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_qsum_imports_only_the_standard_library_and_itself():
    foreign = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            foreign += ["%s:%d %s" % (name, node.lineno, mod) for mod in modules
                        if mod.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_every_exported_name_resolves():
    assert [name for name in qsum.__all__ if not hasattr(qsum, name)] == []


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export, which its __all__ checks
    unread = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += ["%s:%d %s" % (name, line, bound)
                   for bound, line in sorted(imported.items()) if bound not in read]
    assert unread == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: this one has loaded both for pytest
    code = ("import qsum.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC))).stdout
    assert out.split() == []


def test_records_refuse_assignment():
    run = Run(EULER_TEXT, Options(orders=10, mmax=10, n_check=6))
    eq, cond, sol = run.equation, run.conditions, run.solution
    geom = SpiralGeometry(1.0, 0.1, eq.q)
    records = [
        (eq.terms[0], "j"), (eq, "q"), (cond["polygon"].support[0], "ord_t"),
        (cond["polygon"], "m"),
        (characteristic_polynomial(eq, cond["reduced"], cond["shape"].m0), "m0"),
        (run.directions, "rays"), (run.borel, "radius_est"), (run.borel_equation.terms[0], "s"),
        (run.borel_equation, "m0"), (run.grid.values[0], "qexp"), (geom, "epsilon"),
        (zone_membership(geom, 0.3j), "kind"), (substitute_square(eq), "m0_doubled"),
        (sol, "count"), (theta(0.5, 2.0), "qexp"),
    ]
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before, type(record).__name__
    # the guard leaves FormalSolution's cached properties working
    assert sol.sup_norms is sol.sup_norms and len(sol.sup_norms) == sol.count + 1
