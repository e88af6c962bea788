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


def _quoted_names(tree: ast.Module) -> set[str]:
    """The names read inside the string annotations of a module."""
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {name.id
            for note in notes if note is not None
            for s in ast.walk(note) if isinstance(s, ast.Constant) and isinstance(s.value, str)
            for name in ast.walk(ast.parse(s.value, mode="eval")) if isinstance(name, ast.Name)}


SOURCES = sorted(p for p in Path(writ.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _quoted_names(tree)
    exported = {e.value
                for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for e in node.value.elts}
    assert [name for name in imported if name not in used | exported] == []
