"""The package's module layering, read from the source with ``ast``.

Each module may import only modules below it in ``LAYERS``, and only at
module level: an import inside a function would hide a dependency from
this check and from a reader of the module's header.  ``__init__`` gathers
the public names and is exempt.
"""
import ast
from pathlib import Path

import pytest

import corebound

# lowest first; modules on one layer may not import each other
LAYERS = [("numerics", "kernels"), ("hypergraph",), ("montecarlo",), ("local_prob",),
          ("global_prob",), ("sweep",), ("cli",)]
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
SOURCES = sorted(p for p in Path(corebound.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def package_imports(tree: ast.Module):
    """(node, imported module name) for each import of a corebound module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import ...
                yield node, node.module.split(".")[0]
            elif node.level == 1:                # from . import x, y
                yield from ((node, alias.name) for alias in node.names)
            elif node.module and node.module.split(".")[0] == "corebound":
                yield node, node.module.split(".")[1] if "." in node.module else "__init__"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "corebound":
                    yield node, alias.name.split(".")[1] if "." in alias.name else "__init__"


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SOURCES) == sorted(RANK)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_imports_only_lower_layers_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    top_level = {id(node) for node in tree.body}
    found = list(package_imports(tree))
    for node, target in found:
        where = f"{path.name}:{node.lineno} imports {target}"
        assert id(node) in top_level, f"{where} inside a function or block"
        assert RANK.get(target, len(LAYERS)) < RANK[path.stem], f"{where}, not a lower layer"
    assert path.stem in ("numerics", "kernels") or found  # the walk sees the imports
