"""The library's export lists agree with what the modules define and what
the package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import writ

MODULES = sorted(m.name for m in pkgutil.iter_modules(writ.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"writ.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _package_imports() -> list[tuple[str, str]]:
    tree = ast.parse(Path(writ.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_the_package_reexports_only_exported_names():
    imports = _package_imports()
    assert imports
    unexported = [f"{module}.{name}" for module, name in imports
                  if name not in importlib.import_module(f"writ.{module}").__all__]
    assert unexported == []
