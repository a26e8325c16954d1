"""Span tracing of ``levymfg`` from outside the package.

``Tracer.install`` replaces each traced entry point with a timing wrapper
wherever a ``levymfg`` module holds it as a global, so calls made through
names imported into other modules (``mfg.d0_distance``,
``linearized.signed_dual_norm``) are seen too.  ``KernelCache.apply_array``
is wrapped on the class.  Nothing in ``src/`` is edited, and an entry point
that a later refactor removed is reported as absent instead of failing.

Spans are kept in memory as ``[name, parent, start, end, attrs]`` with the
parent's index (-1 for a root) and written out once, when the run ends.
A span's self time is its duration minus the durations of its children;
calls on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

ROOT = "bench.op"


def _apply_array_attrs(args, kwargs, out):
    cache = args[0]
    values = args[2] if len(args) > 2 else kwargs["values"]
    # computed from array sizes: the input read plus the output written
    return {"rows": values.size // cache.grid.node_count,
            "bytes": values.nbytes + out.nbytes}


def _solve_mfg_attrs(args, kwargs, out):
    return {"iterations": out.iterations}


def _solve_linear_system_attrs(args, kwargs, out):
    return {"alternations": out[2].iterations}


def _j_field_batch_attrs(args, kwargs, out):
    return {"columns": out.grid.node_count}


# (module, qualified name, per-call attributes taken from the call)
ENTRY_POINTS = (
    ("measures", "d0_distance", None),
    ("measures", "signed_dual_norm", None),
    ("kernels", "KernelCache.apply_array", _apply_array_attrs),
    ("hjb", "solve_hjb", None),
    ("fp", "solve_fp", None),
    ("coupling", "eval_F", None),
    ("coupling", "apply_dmF", None),
    ("mfg", "solve_mfg", _solve_mfg_attrs),
    ("linearized", "solve_linear_system", _solve_linear_system_attrs),
    ("linearized", "j_field_batch", _j_field_batch_attrs),
    ("master", "solve_scenario", None),
    ("master", "master_residual", None),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(m, q) for m, q, _ in ENTRY_POINTS)


class Tracer:
    """Records spans while ``enabled``; a pass-through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, qualname, attrs in ENTRY_POINTS:
            name = span_name(module_name, qualname)
            try:
                module = importlib.import_module(f"levymfg.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, attrs)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "levymfg":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if attrs is not None:
                record[4] = attrs(args, kwargs, out)
            return out

        return traced

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op):
        """Run one operation under a root span; returns its result."""
        self.enabled = True
        record = self._open(ROOT)
        try:
            return op()
        finally:
            self._close(record)
            self.enabled = False

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"meta": meta, "absent": self.absent,
                       "spans": self.spans}, handle)


def per_op_profiles(spans: list[list]) -> list[dict]:
    """Aggregate spans into one profile per root span.

    A profile's ``layers`` maps a span name to its ``calls``, ``self_s``,
    ``total_s`` (inclusive time; no entry point calls itself) and the summed
    call attributes; ``op_s`` is the root span's duration.  A
    ``master.solve_scenario`` call with no ``mfg.solve_mfg`` under it was
    answered from the memo and counts as a hit.
    """
    child_time = [0.0] * len(spans)
    solved_under: set[int] = set()
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "mfg.solve_mfg":
                solved_under.add(parent)
    profiles: list[dict] = []
    owner = [0] * len(spans)
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        if parent < 0:
            owner[i] = len(profiles)
            profiles.append({"op_s": end - start, "layers": defaultdict(
                lambda: defaultdict(float))})
        else:
            owner[i] = owner[parent]
        layer = profiles[owner[i]]["layers"][name]
        layer["calls"] += 1
        layer["self_s"] += (end - start) - child_time[i]
        layer["total_s"] += end - start
        for key, value in (attrs or {}).items():
            layer[key] += value
        if name == "master.solve_scenario" and i not in solved_under:
            layer["hits"] += 1
    return profiles
