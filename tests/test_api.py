"""Public API surface: each module's ``__all__`` lists exactly its public definitions."""

import importlib
import inspect
import pkgutil

import pytest

import lindtop

# The command-line module is used through its commands, not imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(lindtop.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    mod = importlib.import_module(f"lindtop.{name}")
    exported = list(mod.__all__)
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(mod, n)] == []
    defined = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert sorted(defined - set(exported)) == []
