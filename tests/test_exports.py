"""Every public name a module exports resolves, so deleting a function
cannot leave a stale entry in an ``__all__``; and every exported name has a
reader outside the tests, so no code in the package is kept for them alone."""
import ast
import importlib
import re
from pathlib import Path

import pytest

import corebound

MODULES = [corebound] + [importlib.import_module(f"corebound.{p.stem}")
                         for p in sorted(Path(corebound.__file__).parent.glob("*.py"))
                         if p.stem != "__init__"]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


PACKAGE = Path(corebound.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
# README documents ``generate`` as the guarded one-graph draw for library users.
LIBRARY_ONLY = ("generate",)


def package_reads():
    """Every name the package's code reads: a loaded name, an attribute, or a
    name a module other than ``__init__`` imports."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.stem != "__init__":
                read.update(alias.name for alias in node.names)
    return read


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_has_a_reader_outside_the_tests(module):
    bench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    assert bench  # the word match below sees the benchmark's source
    read = package_reads()
    unread = [name for name in module.__all__ if name not in LIBRARY_ONLY
              and name not in read and not re.search(rf"\b{re.escape(name)}\b", bench)]
    assert unread == []
