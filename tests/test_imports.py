"""The package runs on the standard library alone: every import in
src/qsum is relative or names a standard-library module."""

import ast
import os
import sys

import qsum

SRC = os.path.dirname(qsum.__file__)


def test_qsum_imports_only_the_standard_library_and_itself():
    foreign = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
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
