"""Every name a module binds with ``from ... import`` is used in that module,
and every name a module lists in ``__all__`` exists.

Package ``__init__`` files are skipped by the import check: their imports
are the re-exports. A name listed in the module's ``__all__`` counts as used.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brauerlab"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_from_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*" and (alias.asname or alias.name) not in used
    ]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


ALL_MODULES = sorted(p for p in PACKAGE.rglob("*.py"))


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_all_names_resolve(path):
    module = importlib.import_module(_module_name(path))
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names what it lacks: {missing}"


BENCH = PACKAGE.parent.parent / "perfbench"


def _references(tree: ast.Module, imports: bool = True) -> set:
    """Identifiers, attribute names, imported names (when ``imports``) and
    string constants (``getattr``-style references), outside ``__all__`` and
    annotations."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skipped |= {id(n) for n in ast.walk(node.value)}
        for field in ("annotation", "returns"):
            if getattr(node, field, None) is not None:
                skipped |= {id(n) for n in ast.walk(getattr(node, field))}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_definition_is_referenced():
    """Every ``def`` / ``class`` in ``src/`` is referenced from ``src/`` or
    ``perfbench/``.

    A package ``__init__`` re-export is not a reference: it names the
    definition without using it.  The check works by name, so a definition
    whose name another definition shares escapes it.
    """
    referenced = set()
    for path in [*ALL_MODULES, *sorted(BENCH.rglob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree, imports=path.name != "__init__.py")
    unreferenced = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path in ALL_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]
    assert unreferenced == [], f"defined in src/ but never referenced: {unreferenced}"


def test_no_check_has_a_constant_verdict():
    """No ``check(...)`` call in ``src/`` passes a literal True, False or
    None as ``ok``: such a record reports a verdict that nothing decided."""
    constant = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in ALL_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check"
        for ok in [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "ok")]
        if isinstance(ok, ast.Constant) and (isinstance(ok.value, bool) or ok.value is None)
    ]
    assert constant == [], f"checks with a constant verdict: {constant}"
