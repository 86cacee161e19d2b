"""Each module imports cleanly as the first tscodec module a process loads,
and every private module-level name is used by the package.

``transforms`` reads the QuaRs map through ``symtable``, and the coder
registry imports ``transforms``; ``container`` and ``cli`` both take
``takes_level`` from ``backends``. A module that imports in a full test run
can still fail alone when such an import closes a cycle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tscodec

SRC = str(Path(tscodec.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "module",
    [
        "tscodec.symtable",
        "tscodec.transforms",
        "tscodec.coders.registry",
        "tscodec.backends",
        "tscodec.container",
        "tscodec.cli",
    ],
)
def test_module_imports_first(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _private_definitions(tree: ast.Module):
    """The module-level functions, classes and constants named ``_*`` (not
    dunders), with the statement defining each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree: ast.Module):
    """Each name read, imported or taken as an attribute, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_no_private_module_name_is_dead():
    """A private function, class or constant at module level is referenced
    somewhere under ``src/tscodec/`` outside the statement that defines it.
    Tests do not count: a helper only they use belongs in the tests."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(Path(SRC, "tscodec").rglob("*.py"))}
    uses: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    dead = [
        f"{path.relative_to(SRC)}:{node.lineno} {name}"
        for path, tree in trees.items()
        for name, node in _private_definitions(tree)
        if not any(p != path or not node.lineno <= line <= node.end_lineno for p, line in uses.get(name, []))
    ]
    assert not dead, dead
