"""Packaging metadata in pyproject.toml against the source tree.

Every declared console script must import to a callable, every
package-data pattern must match a shipped file, and every runtime
dependency must be imported by some module of the package.  Every
top-level import of a package or test module must be used by that module,
and every defaulted parameter of a public function of the package must be
passed by some call in the source, the tests or the benchmark harness.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "levymfg"
TESTS = ROOT / "tests"
BENCH = ROOT / "bench"
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_console_scripts_import_to_callables():
    for name, target in PROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def test_package_data_patterns_match_files():
    package_data = PROJECT.get("tool", {}).get("setuptools", {}).get(
        "package-data", {})
    for package, patterns in package_data.items():
        base = SOURCE / package.replace(".", "/")
        for pattern in patterns:
            assert list(base.glob(pattern)), \
                f"package-data pattern {pattern!r} matches no file in {base}"


def test_runtime_dependencies_are_imported():
    imported = imported_top_level_modules()
    for requirement in PROJECT["project"].get("dependencies", []):
        name = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement).group(0)
        module = name.lower().replace("-", "_")
        assert module in imported, f"dependency {name} is never imported"


def unused_top_level_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it appears as a load anywhere in the module
    or is listed in ``__all__``; ``from __future__`` imports are exempt.
    """
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_unused_import_scan_flags_unread_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nimport re\nfrom os import path as p, sep\n"
                     "__all__ = ['sep']\nre.compile(p.join('a'))\n")
    assert unused_top_level_imports(tree) == ["json (line 2)"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: path.name)
def test_top_level_imports_are_used(path):
    unused = unused_top_level_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name} imports but never uses {unused}"


def defaulted_parameters(tree: ast.Module
                         ) -> list[tuple[str, str, int | None]]:
    """(function, parameter, call position) of each defaulted parameter.

    Covers the module's public functions and the public methods of its
    public classes; the position counts the call's positional arguments
    (``self`` or ``cls`` excluded) and is None for a keyword-only one.
    """
    found = []

    def visit(fn: ast.FunctionDef, bound: bool) -> None:
        if fn.name.startswith("_"):
            return
        positional = fn.args.posonlyargs + fn.args.args
        skip = int(bound and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list))
        first = len(positional) - len(fn.args.defaults)
        found.extend((fn.name, arg.arg, i - skip)
                     for i, arg in enumerate(positional) if i >= first)
        found.extend((fn.name, arg.arg, None) for arg, default in zip(
            fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            visit(node, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    visit(item, True)
    return found


def unset_parameters(tree: ast.Module, callers: list[ast.Module]
                     ) -> list[str]:
    """Defaulted public parameters of ``tree`` that no call passes.

    Calls are matched by the called name alone (``f(...)`` or
    ``obj.f(...)``); a call passes a parameter by keyword, by position,
    or through ``*args`` / ``**kwargs``.
    """
    calls: dict[str, list[ast.Call]] = {}
    for caller in callers:
        for node in ast.walk(caller):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, param: str, position: int | None) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        return position is not None and (len(call.args) > position or any(
            isinstance(arg, ast.Starred) for arg in call.args))

    return [f"{fn}({param}=)" for fn, param, position in
            defaulted_parameters(tree)
            if not any(passed(call, param, position)
                       for call in calls.get(fn, []))]


def test_knob_scan_flags_unpassed_defaults():
    tree = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "def g(a=0, b=1): pass\n"
                     "def _h(a=0): pass\n"
                     "class K:\n"
                     "    def m(self, x=0, y=1): pass\n")
    callers = [ast.parse("f(0, c=3)\ng(*xs)\nk.m(1)\n")]
    assert unset_parameters(tree, callers) == ["f(b=)", "m(y=)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_default_is_passed_somewhere(path):
    callers = [ast.parse(p.read_text())
               for base in (SOURCE, TESTS, BENCH) for p in base.rglob("*.py")]
    unset = unset_parameters(ast.parse(path.read_text()), callers)
    assert not unset, f"{path.name}: nothing passes {unset}"
