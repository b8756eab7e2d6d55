import importlib
import pkgutil

import pytest

import lumenrem

MODULES = ["lumenrem"] + [f"lumenrem.{m.name}" for m in pkgutil.iter_modules(lumenrem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    """Each name a module lists in __all__ is defined, so a removed function
    cannot linger as a dangling export."""
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
