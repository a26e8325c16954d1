"""Packaging metadata in pyproject.toml against the source tree.

Every declared console script must import to a callable, every
package-data pattern must match a shipped file, and every runtime
dependency must be imported by some module of the package.  Every
top-level import of a package or test module must be used by that module,
and every defaulted parameter of a public function of the package must be
passed by some call in the source or the benchmark harness, or be named in
``SET_BY_DESIGN`` with its reason; a call in the tests keeps no option
alive.

The public surface is what the solvers and the benchmark reach, plus the
checks that turn a statement of the paper into a computation.  Every
public module-level function of the package, and every public method of
a public class, must be read in the source outside its own body (a
method as an attribute), or in the benchmark harness, or be named in
``UNCALLED_BY_DESIGN`` with its reason.  Test-only reference code lives
in ``tests/oracles.py``, not in the package, and every public function
there is read by a test module.  Every private top-level function, class
and assignment of the package is read by another top-level statement of
some package module.
Only ``grid`` calls numpy's real transforms; every other module goes
through the grid's transform pair, so the layout is decided in one
place.  Only ``coupling`` tests a coupling family by type.  The record
format of the reports is written once: ``grid._Record`` holds the only
``to_dict``, and every ``...Report`` class derives from it.  One function,
``mfg._fixed_point``, runs the Anderson-mixed loop of both coupled
systems, and every leg of either system runs through the march adapters
``hjb._march_backward`` and ``fp._forward_values``, the only callers of the
march.  The time-slab rule, finite t0 < T and at least one step, is raised
by ``hjb._check_slab`` alone.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "levymfg"
TESTS = ROOT / "tests"
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def project() -> dict:
    """pyproject.toml, for the metadata tests only: tomllib is standard from
    Python 3.11, and the source scans below must run without it."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_console_scripts_import_to_callables(project):
    for name, target in project["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def test_package_data_patterns_match_files(project):
    package_data = project.get("tool", {}).get("setuptools", {}).get(
        "package-data", {})
    for package, patterns in package_data.items():
        base = SOURCE / package.replace(".", "/")
        for pattern in patterns:
            assert list(base.glob(pattern)), \
                f"package-data pattern {pattern!r} matches no file in {base}"


def test_runtime_dependencies_are_imported(project):
    imported = imported_top_level_modules()
    for requirement in project["project"].get("dependencies", []):
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


def program_callers(root: Path) -> list[ast.Module]:
    """Every module under ``root``'s ``src`` and ``bench``, the callers the
    knob scan counts; the tests are not among them."""
    return [ast.parse(path.read_text()) for base in ("src", "bench")
            for path in sorted((root / base).rglob("*.py"))]


def test_knob_scan_flags_unpassed_defaults(tmp_path):
    tree = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "def g(a=0, b=1): pass\n"
                     "def _h(a=0): pass\n"
                     "class K:\n"
                     "    def m(self, x=0, y=1): pass\n")
    callers = [ast.parse("f(0, c=3)\ng(*xs)\nk.m(1)\n")]
    assert unset_parameters(tree, callers) == ["f(b=)", "m(y=)"]
    # a call in the tests passes nothing
    for base, text in (("src/pkg", "f(0, c=3)\n"), ("bench", "k.m(1)\n"),
                       ("tests", "f(0, 1)\ng(*xs)\nk.m(1, 2)\n")):
        (tmp_path / base).mkdir(parents=True)
        (tmp_path / base / "calls.py").write_text(text)
    assert unset_parameters(tree, program_callers(tmp_path)) == [
        "f(b=)", "g(a=)", "g(b=)", "m(y=)"]


# Defaulted public parameters that nothing in the source or the benchmark
# passes, each with its reason.
SET_BY_DESIGN = (
    "check_M2(version=)",  # the normalized (M2) convention
    # the tightness certificate's own data
    "tightness_report(triplet=)",
    "tightness_report(drift_sup=)",
    # test_linearized's signed data measure a gap of 4.0e-4, above 1e-4
    "duality_report(tol=)",
    # the data b, c and z_T of the paper's linear system
    "linearize(forcing=)",
    "linearize(flux_forcing=)",
    "linearize(terminal=)",
    "kernel_field(adjoint=)",  # the Fokker-Planck kernel K*_t
    # the J solve's loop settings; they leave with the J batch (ROADMAP 9)
    "j_field(max_iters=)",
    "j_field(tol=)",
    "j_field_batch(damping=)",
)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_default_is_passed_somewhere(path):
    unset = unset_parameters(ast.parse(path.read_text()),
                             program_callers(ROOT))
    stray = [name for name in unset if name not in SET_BY_DESIGN]
    assert not stray, f"{path.name}: nothing in src/ or bench/ passes {stray}"


def test_every_set_by_design_entry_is_a_live_unset_default():
    # an entry whose parameter gained a program caller or was deleted
    # must go
    callers = program_callers(ROOT)
    unset = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in unset_parameters(ast.parse(path.read_text()),
                                          callers)]
    stale = [name for name in SET_BY_DESIGN if name not in unset]
    assert not stale, f"not an unset default of the package: {stale}"


# Public functions that nothing in the source or the benchmark calls.  The
# certificates each check a statement of the paper; the rest give a reason.
UNCALLED_BY_DESIGN = (
    "check_M1",  # Lasry-Lions monotonicity (M1) of a coupling
    "check_M2",  # sign of the coupling's measure-derivative kernel (M2)
    "require_smooth",  # four derivatives of the terminal coupling
    "verify_K_assumption",  # L1 decay of D^beta K_t like t^(-|beta|/alpha)
    "verify_psi_jump_moment",  # big jumps integrate the tightness weight
    "probe_hamiltonian",  # gradient, convexity and monotonicity of H
    "gradient_bound_report",  # C^3 bounds of the value along the flow
    "weak_residual",  # the Fokker-Planck solution is a weak solution
    "tightness_report",  # affine growth of the tightness moment
    "duality_report",  # energy identity of the linearized system
    "d0_interval",  # certified bracket of the bounded-Lipschitz metric
    "lasry_lions_check",  # Lasry-Lions inequality between two equilibria
    "lipschitz_stability_probe",  # Lipschitz dependence on the initial law
    "derivative_check",  # J is the measure derivative of the master field
    "flow_consistency",  # restarting on the flow reproduces it (uniqueness)
    "on_grid",  # the tightness weight that tightness_report takes
    # run diagnostics, kept for the per-iteration records of the solvers
    "mass_series",
    "boundary_shell_mass",
)

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def names_read(node: ast.AST) -> set[str]:
    """Names loaded and attributes accessed anywhere under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def attributes_read(node: ast.AST) -> set[str]:
    """Attributes accessed anywhere under ``node`` (``obj.name``)."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)}


def unreached_public(package: dict[str, ast.Module],
                     bench: list[ast.Module], exempt: tuple[str, ...]
                     ) -> list[str]:
    """``module.name`` of each public function or method nothing reaches.

    Candidates are the public top-level functions (``module.name``) and
    the public methods of public classes (``module.Class.name``).  One is
    reached when another top-level statement or class-body item of any
    package module reads it (its own body does not count), or when a
    benchmark module reads it or holds it in a dotted string such as the
    tracer's ("coupling", "apply_dmF") entries.  A function is read by
    any use of its name, a method only as an attribute (``obj.name``), so
    a local variable of a method's name does not reach it.  Names are
    matched alone, whatever module or class they come from; ``exempt``
    names pass.
    """
    bench_names = set()
    for tree in bench:
        bench_names |= names_read(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                    and _DOTTED.fullmatch(sub.value):
                bench_names.update(sub.value.split("."))
    # (qualified name or None, node, names read, attributes read) per
    # statement or item; a method's qualified name has two dots
    units = []
    for module, tree in package.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                units.append((f"{module}.{node.name}"
                              if isinstance(node, ast.FunctionDef) else None,
                              node, names_read(node), attributes_read(node)))
                continue
            for item in node.body:
                method = (isinstance(item, ast.FunctionDef)
                          and not node.name.startswith("_"))
                units.append((f"{module}.{node.name}.{item.name}"
                              if method else None, item, names_read(item),
                              attributes_read(item)))
    found = []
    for qualified, node, _, _ in units:
        if qualified is None or node.name.startswith("_") or \
                node.name in exempt or node.name in bench_names:
            continue
        method = qualified.count(".") == 2
        if not any(node.name in (attrs if method else names)
                   for _, other, names, attrs in units if other is not node):
            found.append(qualified)
    return sorted(found)


def test_reachability_scan_flags_self_callers():
    package = {
        "a": ast.parse("def lonely(n):\n    return lonely(n - 1)\n"
                       "def lasry_lions_check():\n    pass\n"
                       "def used():\n    pass\n"
                       "def _helper():\n    pass\n"),
        "b": ast.parse("from . import a\n"
                       "def traced():\n    return a.used()\n"),
    }
    bench = [ast.parse("ENTRY_POINTS = (('b', 'traced', None),)\n")]
    assert unreached_public(package, bench, ()) == [
        "a.lasry_lions_check", "a.lonely"]
    assert unreached_public(package, bench, UNCALLED_BY_DESIGN) == [
        "a.lonely"]


def test_reachability_scan_covers_public_methods():
    package = {
        "a": ast.parse("class Box:\n"
                       "    def unread(self):\n        return self.unread()\n"
                       "    def read(self):\n        pass\n"
                       "    def to_dict(self):\n        pass\n"
                       "    def _private(self):\n        pass\n"
                       "class BoxReport:\n"
                       "    def to_dict(self):\n        pass\n"
                       "class _Hidden:\n"
                       "    def stray(self):\n        pass\n"),
        "b": ast.parse("def use(box):\n    return box.read()\n"),
    }
    bench = [ast.parse("ENTRY_POINTS = (('b', 'use', None),)\n")]
    assert unreached_public(package, bench, ()) == [
        "a.Box.to_dict", "a.Box.unread", "a.BoxReport.to_dict"]


def test_reachability_scan_reaches_methods_by_attribute_only():
    # a local variable of a method's name does not reach the method; a
    # bare name still reaches a top-level function
    package = {
        "a": ast.parse("class Measure:\n"
                       "    def mass(self):\n        pass\n"
                       "    def density(self):\n        pass\n"
                       "def total():\n    pass\n"),
        "b": ast.parse("def use(m):\n    mass = 1\n"
                       "    return mass + m.density() + total()\n"),
    }
    bench = [ast.parse("ENTRY_POINTS = (('b', 'use', None),)\n")]
    assert unreached_public(package, bench, ()) == ["a.Measure.mass"]


def test_every_public_function_is_reached_or_named():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in BENCH.rglob("*.py")]
    stray = unreached_public(package, bench, UNCALLED_BY_DESIGN)
    assert not stray, f"nothing in src/ or bench/ calls {stray}"
    # an entry whose function gained a caller or was deleted must go
    named = sorted(name.rsplit(".", 1)[1]
                   for name in unreached_public(package, bench, ()))
    assert named == sorted(UNCALLED_BY_DESIGN)


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a top-level definition or assignment binds (not an import)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def unreached_private(package: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each private top-level name nothing reads.

    Candidates are the top-level functions, classes and assigned names of
    every package module whose name has a leading underscore (dunders such
    as ``__all__`` excepted).  One is reached when another top-level
    statement of any package module reads it, as a name or an attribute;
    its own statement does not count, and an import binds a name without
    reading it.  Names are matched alone, whatever module they come from.
    """
    statements = [(module, node, names_read(node))
                  for module, tree in package.items() for node in tree.body]
    found = []
    for module, node, _ in statements:
        for name in _bound_names(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names for _, other, names in statements
                       if other is not node):
                found.append(f"{module}.{name}")
    return sorted(found)


def test_private_scan_flags_unread_names():
    package = {
        "a": ast.parse("_CAP = 4\n"
                       "_UNREAD: int = 1\n"
                       "__all__ = ['f']\n"
                       "def _lonely(n):\n    return _lonely(n - 1)\n"
                       "def _used():\n    return _CAP\n"
                       "class _Box:\n    pass\n"
                       "class _Shelf:\n    pass\n"),
        "b": ast.parse("from .a import _UNREAD, _Box\n"
                       "from . import a\n"
                       "def f():\n    return _used() + _Box() + a._Shelf\n"),
    }
    assert unreached_private(package) == ["a._UNREAD", "a._lonely"]


def test_every_private_name_is_read():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    stray = unreached_private(package)
    assert not stray, f"nothing in src/ reads {stray}"


def unused_oracles(oracles: ast.Module, tests: list[ast.Module]
                   ) -> list[str]:
    """Public top-level functions of ``oracles`` that no test module reads."""
    read = set().union(*(names_read(tree) for tree in tests))
    return sorted(node.name for node in oracles.body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_") and node.name not in read)


def test_oracle_scan_flags_unread_helpers():
    oracles = ast.parse("def used():\n    return lonely()\n"
                        "def lonely():\n    pass\n"
                        "def _private():\n    pass\n"
                        "class Helper:\n    pass\n")
    tests = [ast.parse("from oracles import used\nx = used()\n")]
    assert unused_oracles(oracles, tests) == ["lonely"]


def test_every_oracle_is_used_by_a_test():
    tests = [ast.parse(path.read_text())
             for path in sorted(TESTS.glob("test_*.py"))]
    unused = unused_oracles(ast.parse((TESTS / "oracles.py").read_text()),
                            tests)
    assert not unused, f"no test module reads oracles {unused}"


# The grid's transform pair owns the real transforms' layout and calls the
# pocketfft kernels itself, so no module calls numpy's real transform entry
# points, and only the pair's module names the kernels' module.  The complex
# ``fftn`` of the coupling's kernel diagnostics is not a real transform.
REAL_TRANSFORMS = frozenset({"rfftn", "irfftn", "rfft", "irfft"})
KERNEL_MODULE = "_pocketfft_umath"


def _names_kernel_module(node: ast.AST) -> bool:
    """Whether ``node`` names ``KERNEL_MODULE`` (use, attribute or import)."""
    if isinstance(node, ast.Name):
        return node.id == KERNEL_MODULE
    if isinstance(node, ast.Attribute):
        return node.attr == KERNEL_MODULE
    if isinstance(node, ast.ImportFrom):
        return KERNEL_MODULE in (node.module or "").split(".") or any(
            alias.name == KERNEL_MODULE for alias in node.names)
    if isinstance(node, ast.Import):
        return any(KERNEL_MODULE in alias.name.split(".")
                   for alias in node.names)
    return False


def real_transform_calls(package: dict[str, ast.Module], owner: str
                         ) -> list[str]:
    """``module:line name`` of each stray real transform in the package.

    Two things count, in any module: a call that names one of
    ``REAL_TRANSFORMS`` as an attribute of ``fft`` (``np.fft.rfft(...)``,
    ``numpy.fft.irfftn(...)``, ``fft.rfftn(...)``), and, outside
    ``owner``, any reference to the kernels' module ``KERNEL_MODULE``.
    """
    found = set()
    for module, tree in package.items():
        for node in ast.walk(tree):
            if module != owner and _names_kernel_module(node):
                found.add(f"{module}:{node.lineno} {KERNEL_MODULE}")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in REAL_TRANSFORMS \
                    and getattr(func.value, "attr",
                                getattr(func.value, "id", None)) == "fft":
                found.add(f"{module}:{node.lineno} {func.attr}")
    return sorted(found)


def test_transform_scan_flags_real_transforms_and_kernel_references():
    package = {
        "grid": ast.parse("import numpy as np\n"
                          "from numpy.fft import _pocketfft_umath\n"
                          "_kernel = _pocketfft_umath.rfft_n_even\n"
                          "def _rfft(grid, v):\n"
                          "    return np.fft.rfft(v, grid.n[0])\n"),
        "a": ast.parse("import numpy as np\n"
                       "from numpy import fft\n"
                       "x = np.fft.irfftn(s)\n"
                       "y = fft.rfft(v)\n"
                       "z = np.fft.fftn(v)\n"
                       "w = np.fft.ifft(v)\n"
                       "f = np.fft.rfftfreq(8)\n"),
        "b": ast.parse("import numpy.fft._pocketfft_umath\n"
                       "from numpy.fft._pocketfft_umath import irfft\n"
                       "from numpy.fft import _pocketfft_umath as pfu\n"
                       "k = np.fft._pocketfft_umath.fft\n"),
    }
    assert real_transform_calls(package, "grid") == [
        "a:3 irfftn", "a:4 rfft",
        "b:1 _pocketfft_umath", "b:2 _pocketfft_umath",
        "b:3 _pocketfft_umath", "b:4 _pocketfft_umath",
        "grid:5 rfft"]


def test_real_transforms_only_in_grid():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    stray = real_transform_calls(package, "grid")
    assert not stray, f"real transforms outside grid's kernels: {stray}"
    grid_tree = package["grid"]
    assert any(_names_kernel_module(node) for node in ast.walk(grid_tree))


# What each coupling family does is decided in ``coupling`` alone: every
# other module goes through its helpers and never tests a family by type.
COUPLING_FAMILIES = frozenset({"Zero", "Conv", "LocalComposite"})


def _class_names(node: ast.AST) -> set[str]:
    """Names of the classes an ``isinstance`` class argument lists."""
    if isinstance(node, ast.Tuple):
        return set().union(*(_class_names(elt) for elt in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def coupling_family_tests(package: dict[str, ast.Module], owner: str
                          ) -> list[str]:
    """``module:line name`` of each family ``isinstance`` outside ``owner``.

    A call counts when its class argument names one of
    ``COUPLING_FAMILIES``, bare, as an attribute (``coupling.Zero``) or in
    a tuple.
    """
    found = set()
    for module, tree in package.items():
        if module == owner:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) == "isinstance" \
                    and len(node.args) == 2:
                found.update(f"{module}:{node.lineno} {name}" for name in
                             _class_names(node.args[1]) & COUPLING_FAMILIES)
    return sorted(found)


def test_family_scan_flags_isinstance_outside_coupling():
    package = {
        "coupling": ast.parse("def f(c):\n"
                              "    return isinstance(c, Zero)\n"),
        "a": ast.parse("from . import coupling\n"
                       "x = isinstance(c, coupling.Conv)\n"
                       "y = isinstance(c, (Field, LocalComposite))\n"
                       "z = isinstance(c, Field)\n"
                       "w = type(c) is Zero\n"),
    }
    assert coupling_family_tests(package, "coupling") == [
        "a:2 Conv", "a:3 LocalComposite"]


def test_coupling_families_tested_only_in_coupling():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    stray = coupling_family_tests(package, "coupling")
    assert not stray, f"coupling families tested outside coupling: {stray}"
    assert coupling_family_tests(
        {"other": package["coupling"]}, "coupling")


# The reports' record format is decided in one place: ``grid._Record``
# holds the only ``to_dict``, and every ``...Report`` class inherits it.
RECORD_OWNER = ("grid", "_Record")


def _base_names(node: ast.ClassDef) -> set[str]:
    """Names of a class's bases, bare or as attributes (``grid._Record``)."""
    return {getattr(base, "id", getattr(base, "attr", None))
            for base in node.bases}


def record_format_breaches(package: dict[str, ast.Module]) -> list[str]:
    """``module.Class`` of each class that writes or skips the record format.

    A class other than ``RECORD_OWNER`` that defines ``to_dict`` counts
    (``module.Class.to_dict``), and so does a class named ``...Report``
    that does not name ``RECORD_OWNER``'s class among its bases.
    """
    owner = RECORD_OWNER[1]
    found = []
    for module, tree in package.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or (
                    (module, node.name) == RECORD_OWNER):
                continue
            if any(isinstance(item, ast.FunctionDef)
                   and item.name == "to_dict" for item in node.body):
                found.append(f"{module}.{node.name}.to_dict")
            if node.name.endswith("Report") \
                    and owner not in _base_names(node):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_record_scan_flags_hand_written_records():
    package = {
        "grid": ast.parse("class _Record:\n"
                          "    def to_dict(self):\n        pass\n"),
        "a": ast.parse("from . import grid\n"
                       "class GoodReport(grid._Record):\n    pass\n"
                       "class BareReport:\n    pass\n"
                       "class OwnReport(_Record):\n"
                       "    def to_dict(self):\n        pass\n"
                       "class Box:\n"
                       "    def to_dict(self):\n        pass\n"
                       "class Reporter:\n    pass\n"),
    }
    assert record_format_breaches(package) == [
        "a.BareReport", "a.Box.to_dict", "a.OwnReport.to_dict"]


def test_records_are_written_only_by_the_shared_base():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    stray = record_format_breaches(package)
    assert not stray, f"record format written outside grid._Record: {stray}"
    assert record_format_breaches({"other": package["grid"]}) == [
        "other._Record.to_dict"]


# The Anderson-mixed fixed point of the coupled and the linear system is
# written once: one function of the package takes the Anderson steps and
# records the stop tests' gaps.
LOOP_PARTS = frozenset({"_anderson", "_PathSups"})


def callers(package: dict[str, ast.Module], names: frozenset[str]
            ) -> dict[str, list[str]]:
    """For each of ``names``, the ``module:owner`` that call it.

    A call counts bare or as an attribute (``mfg._anderson(...)``); its
    owner is the top-level function or class it sits in, or ``line n`` for
    a module-level statement.
    """
    found = {name: set() for name in names}
    for module, tree in package.items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in found:
                        found[name].add(f"{module}:{owner}")
    return {name: sorted(owners) for name, owners in found.items()}


def test_loop_scan_flags_every_caller():
    package = {
        "a": ast.parse("def solve(x):\n"
                       "    gaps = measures._PathSups(grid)\n"
                       "    return mfg._anderson(x, f, xs, fs, 0.5)\n"
                       "class Loop:\n"
                       "    def run(self):\n"
                       "        return _anderson(x, f, xs, fs, 0.5)\n"),
        "b": ast.parse("sups = _PathSups(grid)\n"
                       "def kind():\n"
                       "    return _PathSups\n"),
    }
    assert callers(package, LOOP_PARTS) == {
        "_anderson": ["a:Loop", "a:solve"],
        "_PathSups": ["a:solve", "b:line 1"]}


def test_one_function_runs_the_fixed_point_loop():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    assert callers(package, LOOP_PARTS) == {
        "_anderson": ["mfg:_fixed_point"], "_PathSups": ["mfg:_fixed_point"]}


# one way to run a leg: only the two march adapters call the march, and the
# coupled solvers run their legs through them, not through the checked
# public solvers
MARCH_ADAPTERS = ("fp:_forward_values", "hjb:_march_backward")
PUBLIC_LEGS = frozenset({"solve_hjb", "solve_fp"})
SOLVER_MODULES = ("mfg", "linearized")


def leg_path_breaches(package: dict[str, ast.Module]) -> list[str]:
    """Callers of ``_mild_march`` other than the two adapters, and
    callers of ``solve_hjb`` or ``solve_fp`` inside ``mfg`` or
    ``linearized``."""
    found = callers(package, PUBLIC_LEGS | {"_mild_march"})
    stray = [f"{owner} calls _mild_march" for owner in found["_mild_march"]
             if owner not in MARCH_ADAPTERS]
    return stray + [f"{owner} calls {name}" for name in sorted(PUBLIC_LEGS)
                    for owner in found[name]
                    if owner.split(":")[0] in SOLVER_MODULES]


def test_leg_scan_flags_other_marches_and_public_legs():
    package = {
        "hjb": ast.parse("def _march_backward():\n"
                         "    return _mild_march()\n"
                         "def solve_hjb():\n"
                         "    return _march_backward()\n"),
        "fp": ast.parse("def _forward_values():\n"
                        "    return hjb._mild_march()\n"
                        "def solve_fp():\n"
                        "    return _mild_march()\n"),
        "mfg": ast.parse("def _best_response():\n"
                         "    return solve_hjb(), fp.solve_fp()\n"),
        "linearized": ast.parse("class Legs:\n"
                                "    def run(self):\n"
                                "        return hjb.solve_hjb()\n"),
        "master": ast.parse("def free_flow():\n"
                            "    return solve_fp()\n"),
    }
    assert leg_path_breaches(package) == [
        "fp:solve_fp calls _mild_march",
        "mfg:_best_response calls solve_fp",
        "linearized:Legs calls solve_hjb",
        "mfg:_best_response calls solve_hjb"]


def test_every_leg_runs_through_the_march_adapters():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    assert leg_path_breaches(package) == []


# the time-slab rule is written once: every entry point calls
# ``hjb._check_slab`` rather than raising its own T > t0 or step-count
# message
SLAB_MESSAGE = re.compile(r"T\s*>\s*t0|t0\s*<\s*T|at least one (time )?step")


def slab_rule_raisers(package: dict[str, ast.Module]) -> list[str]:
    """``module:owner`` of each raise whose message states the slab rule.

    Any string constant inside a ``raise`` counts, the pieces of an
    f-string included; the owner is the top-level function or class.
    """
    found = set()
    for module, tree in package.items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", f"line {stmt.lineno}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise) and any(
                        isinstance(part, ast.Constant)
                        and isinstance(part.value, str)
                        and SLAB_MESSAGE.search(part.value)
                        for part in ast.walk(node)):
                    found.add(f"{module}:{owner}")
    return sorted(found)


def test_slab_scan_flags_every_copy_of_the_rule():
    package = {
        "hjb": ast.parse("def _check_slab(t0, T, n):\n"
                         "    if not T > t0:\n"
                         "        raise ValueError(f'[{t0}, {T}] T > t0')\n"
                         "    if n < 1:\n"
                         "        raise ValueError('at least one step')\n"),
        "fp": ast.parse("def solve_fp(t0, T):\n"
                        "    \"\"\"Needs T > t0.\"\"\"\n"
                        "    if not T > t0:\n"
                        "        raise ValueError('need T > t0')\n"),
        "mfg": ast.parse("class Problem:\n"
                         "    def check(self):\n"
                         "        raise ValueError('need at least one step')\n"
                         "def other():\n"
                         "    raise ValueError('at least one iteration')\n"),
    }
    assert slab_rule_raisers(package) == [
        "fp:solve_fp", "hjb:_check_slab", "mfg:Problem"]


def test_only_the_slab_check_raises_the_slab_rule():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    assert slab_rule_raisers(package) == ["hjb:_check_slab"]
