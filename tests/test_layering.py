"""The package's module layering, read from the source with ``ast``.

Each module may import only modules below it in ``LAYERS``, and only at
module level: an import inside a function would hide a dependency from
this check and from a reader of the module's header.  ``__init__`` gathers
the public names and is exempt.

numpy is bound by ``kernels`` alone, lazily, so that the formula layers
start without its import: no module has an ``import numpy`` statement,
``hypergraph`` takes ``np`` from ``kernels``, and the other modules never
name it.

Methods are keyed by scope, not by CLI subcommand: ``local_prob.methods_for``
is called with a member of ``local_prob.SCOPES``, and ``local_prob`` names no
subcommand that is not a scope.
"""
import ast
import re
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


TAKE_NP_FROM_KERNELS = ("hypergraph",)  # the other modules never name numpy


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_numpy_only_through_kernels(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [(node, alias) for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    for node, alias in imported:
        module = alias.name if isinstance(node, ast.Import) else node.module
        if isinstance(node, ast.Import) or node.level == 0:
            assert module.split(".")[0] != "numpy", f"{path.name}:{node.lineno} imports numpy"
    takes_np = any(isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, "kernels")
                   and alias.name == "np" for node, alias in imported)
    assert takes_np == (path.stem in TAKE_NP_FROM_KERNELS), f"{path.name}: from .kernels import np"
    if path.stem not in ("kernels", *TAKE_NP_FROM_KERNELS):
        named = ({alias.asname or alias.name for _, alias in imported}
                 | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                 | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})
        assert not named & {"numpy", "np"}, f"{path.name} names numpy"


BENCHMARK_ONLY = ("choose_float", "sample_edge_mask", "connected_all")


def test_benchmark_only_names_have_no_package_reader():
    """In the package only the own ``def`` of ``numerics.choose_float``,
    ``kernels.sample_edge_mask`` and ``kernels.connected_all``, their
    ``__all__`` entries and ``__init__``'s re-export name them, in code,
    docstrings and comments alike: only the benchmark (and the tests) call
    them, so deleting them takes no other edit under ``src/``.  The benchmark
    change that deletes them drops them from ``BENCHMARK_ONLY``."""
    defined = []
    for path in sorted(Path(corebound.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        exports = [elt.value for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                   for elt in node.value.elts]
        for name in BENCHMARK_ONLY:
            defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
            reexports = [a for n in tree.body if isinstance(n, ast.ImportFrom)
                         for a in n.names if a.name == name] if path.stem == "__init__" else []
            readers = [n for n in ast.walk(tree)
                       if isinstance(n, ast.Name) and n.id == name
                       or isinstance(n, ast.Attribute) and n.attr == name
                       or isinstance(n, ast.alias) and name in (n.name, n.asname)]
            assert len(readers) == len(reexports), f"{path.name} reads {name}"
            kept = len(defs) + exports.count(name) + len(reexports)
            assert len(re.findall(rf"\b{name}\b", text)) == kept, f"{path.name} names {name}"
            defined += [name] * len(defs)
    assert sorted(defined) == sorted(BENCHMARK_ONLY)  # a deleted name leaves the list


METHOD_NAMES = frozenset(corebound.local_prob.METHODS)


def method_name_tests(tree: ast.AST, names=METHOD_NAMES):
    """Each comparison with ``==``, ``!=``, ``in`` or ``not in`` that has a
    literal from ``names`` (by default the method names, the keys of
    ``local_prob.METHODS``) as an operand, or in a tuple, list or set operand."""
    ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, ops) for op in node.ops):
            for operand in (node.left, *node.comparators):
                items = (operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                         else [operand])
                if any(isinstance(x, ast.Constant) and x.value in names for x in items):
                    yield node
                    break


def test_method_name_tests_are_found():
    found = ast.parse('a == "covering"\n"gilbert" != a\na in ("x", "exact-enum")\n'
                      'a not in {"interleaved-lower"}\na < "connectivity"\n')
    assert len(list(method_name_tests(found))) == 4
    not_tests = ast.parse('f(default="connectivity")\nm = x or ("connectivity",)\n'
                          'a == "mc"\nd["covering"] < 1\n')
    assert list(method_name_tests(not_tests)) == []
    mc = ast.parse('a == "mc"\n"mc" in methods\na not in ("x", "mc")\nm != "mc"\n'
                   'f(default="mc")\nm = ("connectivity", "mc")\n')
    assert len(list(method_name_tests(mc, {"mc"}))) == 4
    assert list(method_name_tests(mc)) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "local_prob"],
                         ids=lambda p: p.stem)
def test_method_names_are_decided_in_local_prob(path):
    """Only ``local_prob``, whose ``METHODS`` table maps each local method name
    to its computation, tests a value against a method name; the other
    modules read the table (argparse defaults and default tuples are not
    tests)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in method_name_tests(tree)] == [], path.name


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "sweep"],
                         ids=lambda p: p.stem)
def test_mc_is_decided_in_sweep(path):
    """Only ``sweep``, whose ``evaluate`` hands ``mc`` to the scope's Monte
    Carlo estimator, tests a value against ``"mc"``; the other modules call
    ``sweep.evaluate`` (choice lists and default tuples are not tests)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in method_name_tests(tree, {"mc"})] == [], path.name


MODULES = frozenset(RANK)


def private_reads(tree: ast.AST):
    """Each read of another corebound module's private name: ``mod._name`` for
    a corebound module ``mod``, or ``from .mod import _name`` (also spelled
    ``from corebound.mod import _name``).  Dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES and private(node.attr)):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.level == 1 or node.module.split(".")[0] == "corebound"):
            if any(private(alias.name) for alias in node.names):
                yield node


def test_private_reads_are_found():
    found = ast.parse('montecarlo._check_trials(1, 2)\nfrom .kernels import np, _levels\n'
                      'from corebound.numerics import _x\nx = kernels._lazy_numpy\n')
    assert sorted(node.lineno for node in private_reads(found)) == [1, 2, 3, 4]
    not_reads = ast.parse('self._memo\nmontecarlo.check_trials\nkernels.__name__\n'
                          'from .kernels import np\nfrom numpy import _x\nother._y\n'
                          'from . import kernels\n')
    assert list(private_reads(not_reads)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    """A module reads only the public names of another corebound module: a
    rule with one owner is called through that owner's public name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in private_reads(tree)] == [], path.name


# the subcommands that are not scopes; local_prob, below cli, names none of them
COMMANDS_NOT_SCOPES = frozenset({"sweep", "breakdown", "oracle"})


def methods_for_literals(tree: ast.AST):
    """(call, literal) for each string literal argument of a ``methods_for(...)``
    or ``mod.methods_for(...)`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "methods_for" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None)):
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    yield node, arg.value


def command_constants(tree: ast.AST, names=COMMANDS_NOT_SCOPES):
    """Each constant in ``names`` in the code, skipping docstrings (the first
    statement of a module, class or function, when it is a string)."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in names and id(node) not in docstrings:
            yield node


def test_scope_rules_are_found():
    calls = ast.parse('methods_for("breakdown")\nlocal_prob.methods_for("sweep")\n'
                      'methods_for("local")\nmethods_for(scope)\nmethods_for(scope="global")\n'
                      'other("sweep")\n')
    assert sorted(lit for _, lit in methods_for_literals(calls)) == [
        "breakdown", "global", "local", "sweep"]
    code = ast.parse('"""sweep"""\ndef f():\n    """breakdown"""\n    return "oracle"\n'
                     'x = ("local", "sweep")\nclass C:\n    """oracle"""\n'
                     '    y: tuple = ("breakdown",)\nz = "a sweep"\n')
    assert sorted(node.lineno for node in command_constants(code)) == [4, 5, 8]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_methods_for_takes_a_scope(path):
    """``methods_for`` keys the method table by scope, so a literal it is
    given names a member of ``local_prob.SCOPES``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    wrong = [(node.lineno, lit) for node, lit in methods_for_literals(tree)
             if lit not in corebound.local_prob.SCOPES]
    assert wrong == [], path.name


def test_local_prob_names_no_subcommand():
    """``local_prob``'s code holds no ``"sweep"``, ``"breakdown"`` or
    ``"oracle"`` constant: which methods a subcommand offers is decided in
    ``cli`` from the scopes."""
    path = Path(corebound.local_prob.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in command_constants(tree)] == []
