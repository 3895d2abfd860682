"""Every name an import binds in src/ and tests/ is used in its module,
and every name a cohomlab module exports in __all__ exists.

A name counts as used when it is read anywhere in the module or listed in
its __all__.  `from __future__` imports bind nothing and are skipped.
KEPT lists the few imports a module keeps without reading them.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import comb, gcd\n"
              "__all__ = ['comb']\n"
              "print(os)\n")
    assert unused_imports(source) == [(2, "osp"), (3, "gcd")]


# Imports kept on purpose, by module: the one list of exceptions.  An entry
# that the module starts to read fails the test too, so none goes stale.
# geometry.det: perfbench/test_perfbench.py checks that geometry.det is
# linalg.det; the binding goes together with the tracer's det hook.
KEPT = {"src/cohomlab/geometry.py": ["det"]}


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    unused = [name for _line, name in unused_imports(path.read_text())]
    assert unused == KEPT.get(path.relative_to(ROOT).as_posix(), [])


PACKAGE = sorted((ROOT / "src" / "cohomlab").glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=[p.stem for p in PACKAGE])
def test_every_exported_name_resolves(path):
    name = "cohomlab" if path.stem == "__init__" else "cohomlab." + path.stem
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
