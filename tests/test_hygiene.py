"""Static and runtime hygiene of ``src/``.

- Every name a module binds with ``from ... import`` is used in that module,
  and every name a module lists in ``__all__`` exists.  Package
  ``__init__`` files are skipped by the import check: their imports are the
  re-exports.  A name listed in the module's ``__all__`` counts as used.
- Every function is called by one of a fixed list of command runs, or is
  allowlisted as a display dunder, a path a named test reaches or a
  perfbench consumer; every class is referenced by name.
- No check record has a literal verdict, and no module function only
  passes its parameters on.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def test_every_class_is_referenced():
    """Every ``class`` in ``src/`` is referenced from ``src/`` or
    ``perfbench/``; functions are held to the stricter runtime check of
    test_every_function_is_reached.

    A package ``__init__`` re-export is not a reference: it names the class
    without using it.  The check works by name, so a class whose name
    another definition shares escapes it.
    """
    referenced = set()
    for path in [*ALL_MODULES, *sorted(BENCH.rglob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree, imports=path.name != "__init__.py")
    unreferenced = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path in ALL_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name not in referenced
    ]
    assert unreferenced == [], f"classes in src/ never referenced: {unreferenced}"


# the command runs whose calls count as reaching a src/ function
REACHING_RUNS = [
    ["selftest", "--seed", "42"],
    ["selftest", "--seed", "7"],
    ["crossed-decompose", "--m", "2", "--random", "3"],
    *(["crossed-decompose", "--m", m, "--symbol", "3", "5", "2", "1"] for m in "234"),
    ["crossed-decompose", "--m", "3", "--symbol", "3", "5", "0", "1"],
    ["crossed-decompose", "--m", "3", "--symbol", "3", "5", "2", "1", "--mu", "1", "--nu", "2"],
    ["traceform", "--random", "3"],
    ["lattice", "--group", "S4", "--r", "2"],
    ["lattice", "--formanek", "6"],
    ["bounds", "--n", "4"],
    ["bounds", "--n", "5"],
    ["udn-factorset", "--n", "3"],
    ["udn-factorset", "--n", "5"],
]

# Runs the argv lists of sys.argv[1] through cli.main under a profile hook
# installed before the import, and prints the exit codes and the (file,
# first line) of every code object called.
_REACH = """
import contextlib, io, json, sys
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import brauerlab.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(brauerlab.cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""

DUNDER, PERFBENCH = "dunder", "perfbench"

# Functions that no run reaches and that stay in src/, each for one reason:
# a display dunder (__repr__ or __str__); a path only a test reaches, given
# as that test (an error path, or another dunder); or a perfbench consumer,
# whose name perfbench/*.py uses.  snf.py is one module entry, since the
# benchmark harness wraps its functions by name.
UNREACHED = {
    "snf.py": PERFBENCH,
    "crossed.py:PowerCancellationCertificate.to_json": PERFBENCH,
    "lattices.py:ExactnessReport.to_json": PERFBENCH,
    "lattices.py:LatticeMap.matrix": PERFBENCH,
    "lattices.py:GLattice.images":
        "tests/test_lattices.py::test_a_kernel_lattice_needs_a_permutation_view",
    "quadforms.py:WittMove.describe":
        "tests/test_quadforms.py::test_witt_apply_rejects_bad_witness",
    "quadforms.py:witt_apply.fail":
        "tests/test_quadforms.py::test_witt_apply_rejects_bad_witness",
    "exactfield/cyclotomic.py:DerivedOps.__rtruediv__":
        "tests/test_exactfield.py::test_shared_derived_operators",
    "bounds.py:BoundReport.__repr__": DUNDER,
    "exactfield/cyclotomic.py:Cyc.__repr__": DUNDER,
    "exactfield/poly.py:FieldElement.__repr__": DUNDER,
    "exactfield/poly.py:FieldElement.__str__": DUNDER,
    "exactfield/poly.py:MultiPoly.__repr__": DUNDER,
    "exactfield/poly.py:MultiPoly.__str__": DUNDER,
    "exactfield/poly.py:PolyRing.__repr__": DUNDER,
    "factorsets.py:FactorSetMonomial.__str__": DUNDER,
    "groups.py:CosetSpace.__repr__": DUNDER,
    "groups.py:PermutationGroup.__repr__": DUNDER,
    "groups.py:Subgroup.__repr__": DUNDER,
    "lattices.py:GLattice.__repr__": DUNDER,
    "lattices.py:LatticeMap.__repr__": DUNDER,
    "lattices.py:LatticeSequence.__repr__": DUNDER,
}


def _functions() -> dict:
    """{(module path, first line): dotted name} of every ``def`` in src/.
    The first line is the first decorator's, as in ``co_firstlineno``."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    found[(module, first.lineno)] = name
                visit(child, module, name + ".")
            else:
                visit(child, module, prefix)

    for path in ALL_MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.relative_to(PACKAGE)), "")
    return found


def _bad_reasons() -> list:
    bench = set()
    for path in BENCH.glob("*.py"):
        bench |= _references(ast.parse(path.read_text(encoding="utf-8")))
    bad = []
    for entry, reason in UNREACHED.items():
        module, _, qualname = entry.partition(":")
        name = qualname.rpartition(".")[2] if qualname else Path(module).stem
        if reason == DUNDER:
            ok = name in ("__repr__", "__str__")
        elif reason == PERFBENCH:
            ok = name in bench
        else:
            test_file, _, test = reason.partition("::")
            tree = ast.parse((PACKAGE.parent.parent / test_file).read_text(encoding="utf-8"))
            ok = any(isinstance(n, ast.FunctionDef) and n.name == test for n in tree.body)
        if not ok:
            bad.append(f"{entry}: {reason}")
    return bad


def test_every_function_is_reached():
    """Every ``def`` in ``src/`` is called by one of REACHING_RUNS, or is in
    UNREACHED with a reason that holds.

    The runs go in a fresh interpreter, so that no lru_cache or interned
    ring that an earlier test filled hides a call.
    """
    assert _bad_reasons() == []
    result = subprocess.run(
        [sys.executable, "-c", _REACH, json.dumps(REACHING_RUNS)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0] * len(REACHING_RUNS)
    called = set()
    for filename, line in report["called"]:
        path = Path(filename).resolve()
        if path.is_relative_to(PACKAGE):
            called.add((str(path.relative_to(PACKAGE)), line))
    unreached = {f"{module}:{name}" for (module, line), name in _functions().items()
                 if (module, line) not in called}
    missing = sorted(u for u in unreached
                     if u not in UNREACHED and u.partition(":")[0] not in UNREACHED)
    assert missing == [], f"functions in src/ that no command reaches: {missing}"
    stale = sorted(e for e in UNREACHED if ":" in e and e not in unreached)
    assert stale == [], f"allowlisted functions that a command reaches or that are gone: {stale}"


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


def _passes_on_its_parameters(node: ast.FunctionDef) -> bool:
    """The body, after any docstring, is one ``return f(...)`` whose arguments
    are exactly the function's own parameters, in any order."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) \
            or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    passed = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    passed += [k.value for k in call.keywords]
    a = node.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return (all(isinstance(x, ast.Name) for x in passed)
            and sorted(x.id for x in passed) == sorted(params))


def test_no_module_function_only_passes_its_parameters_on():
    """No module-level ``def`` in ``src/`` is a pass-through wrapper: a
    function that returns one call on exactly its own parameters is a second
    name for that callable, so callers call the callable."""
    wrappers = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path in ALL_MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _passes_on_its_parameters(node)
    ]
    assert wrappers == [], f"pass-through wrappers: {wrappers}"
