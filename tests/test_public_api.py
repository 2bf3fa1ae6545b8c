"""The public names: every ``__all__`` entry resolves, and the package
re-exports only names its modules declare public.

The benchmark harness wraps each module's ``__all__`` functions through
``getattr(module, name, None)``, so a stale entry would be skipped there
without an error; this test names it instead.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sbpkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(sbpkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_an_attribute(name):
    module = importlib.import_module(f"sbpkit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_declared_public_names():
    tree = ast.parse(Path(sbpkit.__file__).read_text(encoding="utf-8"))
    undeclared = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"sbpkit.{node.module}")
            public = [a.name for a in node.names if not a.name.startswith("_")]
            undeclared += [
                f"{node.module}.{n}" for n in public if n not in module.__all__
            ]
    assert undeclared == []
