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


# every name the package exported before its __all__ was built from its
# modules' lists; none of them may go
PUBLISHED = """
    App Arrow BCons BFunc BOUND Base BaseList Builtin COST Com Cons ConsDecl Constant
    CostReport DEFAULT_FUEL Data DuplicateSymbol EXACT EffectTriple EvalResult Fuel
    FuelExhausted Func FuncDecl GAMMA Gamma IOTA Identity Inc Instantiation Iota LIST Lam Lit
    MApp MArrow MData MLam MLit MPair MVar MetaTerm MetaType MetaTypeMismatch
    MissingInterpretation ModulusReport NAT OracleSpec PCons PVar ParseError Pattern Prod
    ProjL ProjR QUERIES Rule SEARCH_TEMPLATE SFun SPair SemVal ShapeMismatch Signature
    StuckTerm TRIVIAL Table Term Ty TypeMismatch UnboundVariable UndeclaredSymbol
    UnsupportedSymbol Var VerifyReport WritError app as_base as_eff as_fun as_list as_pair
    bar_rec bcons_type bfunc_type bounded_cost compose continuity_inst cost_bounded_inst
    cost_exact_inst denote evaluate evaluate_with_oracle exact_cost free_vars lift list_term
    list_value majorant majorizability_inst meta_typecheck modulus numeral numeral_value
    oracle_from_json oracle_from_string oracle_label pair_parts parse_term parse_type
    recursor render_meta render_meta_type render_semval render_term render_type run_corpus
    semantic_join signature_for spair spector_closed_form spine substitute symbols system_t
    system_t_list translate typecheck verify_bound verify_exact_cost verify_file
    verify_majorant verify_modulus verify_spector with_oracle
""".split()


def _package_modules() -> list:
    """The modules the package imports, in order; each import takes a
    module's whole __all__."""
    tree = ast.parse(Path(writ.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports and all([alias.name for alias in node.names] == ["*"] for node in imports)
    return [importlib.import_module(f"writ.{node.module}") for node in imports]


def test_the_package_exports_its_modules_lists_in_import_order():
    names = [name for module in _package_modules() for name in module.__all__]
    assert writ.__all__ == names
    assert len(set(names)) == len(names)


def test_each_package_name_is_its_modules_object():
    stray = [f"{module.__name__}.{name}" for module in _package_modules()
             for name in module.__all__ if getattr(writ, name) is not getattr(module, name)]
    assert stray == []


def test_the_package_keeps_every_published_name():
    assert len(PUBLISHED) == 134
    assert [name for name in PUBLISHED if name not in writ.__all__] == []


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
