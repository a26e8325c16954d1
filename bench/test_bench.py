"""Smoke tests of the benchmark itself, on grids small enough for seconds.

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402

run.pin_threads()
workloads = run.import_workloads(
    os.path.join(os.path.dirname(BENCH_DIR), "src"))

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


class SmallMfg1d(workloads.Mfg1d):
    nodes = 16
    n_steps = 8


class SmallMfg2d(workloads.Mfg2d):
    nodes = 8
    n_steps = 2


class SmallMaster(workloads.Master16):
    nodes = 8


SMALL = (SmallMfg1d, SmallMfg2d, SmallMaster)


def traced_run(cls) -> dict:
    """One untraced and one traced operation; returns the layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run.closed_loop(cls(1), None, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert loop["attempted"] == 2
    assert [op["traced"] for op in loop["ops"]] == [False, True]
    assert tracer.absent == []
    untraced = [op["op_s"] for op in loop["ops"] if not op["traced"]]
    return run.layer_metrics(tracing.per_op_profiles(tracer.spans), untraced)


@pytest.fixture(scope="module", params=SMALL, ids=lambda c: c.name)
def two_traced_runs(request):
    return traced_run(request.param), traced_run(request.param)


def _spec_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_end_to_end_names_match_spec():
    work = SmallMfg1d(1)
    loop = run.closed_loop(work, None, 0.0)
    assert loop["failures"] == []
    metrics = run.end_to_end_metrics([(0.5, 0.05)], loop["ops"])
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _spec_units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_names_match_spec(two_traced_runs):
    metrics, _ = two_traced_runs
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _spec_units("per_layer")


def test_counts_repeat_exactly(two_traced_runs):
    first, second = two_traced_runs
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert "measures.d0_distance.calls" in counts
    assert {k: first[k]["value"] for k in counts} == \
        {k: second[k]["value"] for k in counts}
    assert first["mfg.solve_mfg.calls"]["value"] >= 1


def test_self_times_add_up_to_the_traced_op(two_traced_runs):
    for metrics in two_traced_runs:
        self_sum = sum(v["value"] for k, v in metrics.items()
                       if k.endswith(".self_s"))
        op_s = metrics["trace.op_s"]["value"]
        assert all(v["value"] >= -1e-9 for k, v in metrics.items()
                   if k.endswith(".self_s"))
        assert self_sum <= op_s * (1.0 + 1e-9)
        assert self_sum >= 0.99 * op_s


def test_master_trace_sees_the_derivative_layer():
    metrics = traced_run(SmallMaster)
    assert metrics["master.solve_scenario.calls"]["value"] == 3
    assert metrics["linearized.j_field_batch.calls"]["value"] == 1
    assert metrics["linearized.solve_linear_system.calls"]["value"] == \
        SmallMaster.nodes
    assert metrics["measures.signed_dual_norm.calls"]["value"] > 0


def test_absent_entry_point_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("measures", "no_such_metric", None),
        ("no_such_module", "solve", None)))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["measures.no_such_metric", "no_such_module.solve"]


def test_install_covers_imported_names_and_uninstall_restores():
    from levymfg import linearized, measures, mfg
    originals = (measures.d0_distance, mfg.d0_distance,
                 linearized.signed_dual_norm)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mfg.d0_distance is measures.d0_distance
        assert mfg.d0_distance is not originals[0]
        assert linearized.signed_dual_norm is not originals[2]
    finally:
        tracer.uninstall()
    assert (measures.d0_distance, mfg.d0_distance,
            linearized.signed_dual_norm) == originals


def test_wrong_output_fails_the_check():
    work = SmallMfg1d(1)
    sol = work.op(0)
    good = work.reference_values(sol)
    assert work.check(sol, good) == []
    bad = dict(good, u_t0=[v + 1e-3 for v in good["u_t0"]])
    assert any("u(t0)" in msg for msg in work.check(sol, bad))
