"""Every public name a module exports resolves, so deleting a function
cannot leave a stale entry in an ``__all__``."""
import importlib
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
