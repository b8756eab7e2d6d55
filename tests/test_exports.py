import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def _imported_packages(path: Path):
    """The top-level package of every absolute import in a source file,
    wherever in the file it sits."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(Path(lumenrem.__file__).parent.rglob("*.py")),
                         ids=lambda p: p.name)
def test_the_runtime_imports_only_the_stdlib_and_numpy(path):
    """The package runs on NumPy alone: every module imports only the
    standard library, NumPy and the package itself."""
    allowed = sys.stdlib_module_names | {"numpy", "lumenrem"}
    assert sorted(set(_imported_packages(path)) - allowed) == []
