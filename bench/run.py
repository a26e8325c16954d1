"""Benchmark of the levymfg solvers: one command, one workload per run.

Run from the root of a checkout:

    python3 bench/run.py --workload mfg1d --seed 0 --seconds 40 --trace 0

``BENCHMARK.json`` lists the workloads the benchmark is judged on; every
workload in ``workloads.WORKLOADS`` can be run by name.

The run builds its inputs from ``--seed`` (see ``workloads.py``), then runs
a closed loop - one caller, one operation after another - for
``--seconds`` seconds, and checks every output outside the timed region.
BLAS/OpenMP pools are pinned to one thread before numpy is imported.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over this
process and fresh set-up probes, scaled to the reference host by the
calibration job of ``calibration.py``), ``op_cal`` (median operation time in
units of the calibration job run next to it), ``residual_sup`` and
``peak_rss_mb``; the plain wall-clock medians are printed and recorded
beside them.  ``--trace 1`` alternates untraced and traced operations and
reports per-layer metrics per operation, taken from spans recorded around
the ``levymfg`` entry points (``tracing.py``).

The run environment goes to the first line of standard output and the
result object to the last.  A record of the run, and the spans of a traced
run, are written to ``.bench_out/``.  The exit code is 0 only when every
operation succeeded and passed its checks.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
# Calibration time after each untraced operation, as a share of it.
CALIBRATION_SHARE = 0.03


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the set-up time")
    parser.add_argument("--record-reference", action="store_true",
                        help="run one operation on the default seed and "
                             "store its outputs as the reference")
    return parser.parse_args(argv)


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_workloads(src_dir: str):
    """Import the workloads against the checkout's own ``src/levymfg``."""
    if not os.path.isfile(os.path.join(src_dir, "levymfg", "__init__.py")):
        raise SystemExit(
            f"bench: no levymfg sources under {src_dir}; run from the root "
            "of a checkout")
    sys.path.insert(0, src_dir)
    import levymfg
    found = os.path.dirname(os.path.dirname(os.path.abspath(levymfg.__file__)))
    if found != os.path.abspath(src_dir):
        raise SystemExit(f"bench: levymfg imported from {found}, "
                         f"not from {src_dir}")
    import workloads
    return workloads


def environment(src_dir: str) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(src_dir, "levymfg"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def setup_probes(workload: str, seed: int, count: int) -> list[tuple]:
    """``(set-up time, calibration pass time)`` of fresh processes; set-up
    is the imports plus building the workload."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, pass_s = proc.stdout.split()[-2:]
        times.append((float(setup_s), float(pass_s)))
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def closed_loop(work, reference, seconds: float, tracer=None) -> dict:
    """Run operations back to back for ``seconds``.

    Untraced, operation k solves input k of the pool (cyclically), and a
    calibration block (``calibration.py``) runs before the first operation
    and after each one; ``op_cal`` is the operation's time over the mean of
    the blocks on either side.  With a tracer, every operation solves input
    0, odd ones untraced and even ones traced, and at least one of each
    runs, so the trace counts are those of one input.  Checks run after
    the clock stops; ``reference`` belongs to input 0.  Returns the number
    attempted, a dict per successful operation, and ``(operation,
    message)`` per failure.
    """
    ops, failures = [], []
    min_ops = 1 if tracer is None else 2
    attempted = 0
    loop_start = time.perf_counter()
    cal_before = calibration.block_s(0.2) if tracer is None else None
    while attempted < min_ops or time.perf_counter() - loop_start < seconds:
        k = 0 if tracer is not None else attempted % work.pool_size
        attempted += 1
        traced = tracer is not None and attempted % 2 == 0
        start = time.perf_counter()
        try:
            result = tracer.run_op(lambda: work.op(k)) if traced \
                else work.op(k)
        except Exception as exc:  # counted as a failed operation
            failures.append((attempted, f"{type(exc).__name__}: {exc}"))
            continue
        op = {"traced": traced, "op_s": time.perf_counter() - start,
              "residual": work.residual_sup(result)}
        if tracer is None:
            cal_after = calibration.block_s(CALIBRATION_SHARE * op["op_s"])
            op["op_cal"] = 2.0 * op["op_s"] / (cal_before + cal_after)
            cal_before = cal_after
        ops.append(op)
        failures += [(attempted, f"input {k}: {msg}") for msg in work.check(
            result, reference if k == 0 else None)]
    return {"attempted": attempted, "ops": ops, "failures": failures}


def end_to_end_metrics(setup_times: list[tuple], ops: list[dict]) -> dict:
    """``setup_s`` is in seconds of the reference host: each set-up time is
    scaled by the calibration pass timed right after it in its process."""
    return {
        "setup_s": metric(calibration.REFERENCE_PASS_S * statistics.median(
            setup / pass_s for setup, pass_s in setup_times), "s"),
        "op_cal": metric(statistics.median(op["op_cal"] for op in ops), "cal"),
        "residual_sup": metric(
            statistics.median(op["residual"] for op in ops), "1"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(profiles: list[dict], untraced_times: list[float]) -> dict:
    """Per-operation layer metrics from the traced operations.

    Times are means over the traced operations, so the self times add up
    to ``trace.op_s``.  Counts are those of the first traced operation,
    which every run makes in the same state, so they repeat exactly.
    """
    def count(name, key):
        return int(profiles[0]["layers"].get(name, {}).get(key, 0))

    def mean_s(name, key):
        return statistics.fmean(
            p["layers"].get(name, {}).get(key, 0.0) for p in profiles)

    op_s = statistics.fmean(p["op_s"] for p in profiles)
    out = {}
    for name in tracing.SPAN_NAMES + (tracing.ROOT,):
        if name != tracing.ROOT:
            out[f"{name}.calls"] = metric(count(name, "calls"), "count")
        self_s = mean_s(name, "self_s")
        out[f"{name}.self_s"] = metric(self_s, "s")
        out[f"{name}.share"] = metric(self_s / op_s, "ratio")
    rows = count("kernels.apply_array", "rows")
    applies = count("kernels.apply_array", "calls")
    out["kernels.apply_array.rows"] = metric(rows, "count")
    out["kernels.apply_array.rows_per_call"] = metric(
        rows / applies if applies else 0.0, "ratio")
    out["kernels.apply_array.bytes_computed"] = metric(
        count("kernels.apply_array", "bytes"), "bytes")
    out["mfg.iterations"] = metric(
        count("mfg.solve_mfg", "iterations"), "count")
    out["linearized.alternations"] = metric(
        count("linearized.solve_linear_system", "alternations"), "count")
    batch_s = mean_s("linearized.j_field_batch", "total_s")
    columns = count("linearized.j_field_batch", "columns")
    out["linearized.j_field_batch.s"] = metric(batch_s, "s")
    out["linearized.jcols_per_s"] = metric(
        columns / batch_s if batch_s > 0.0 else 0.0, "1/s")
    lookups = count("master.solve_scenario", "calls")
    out["master.solve_scenario.hit_ratio"] = metric(
        count("master.solve_scenario", "hits") / lookups if lookups else 0.0,
        "ratio")
    out["trace.spans"] = metric(
        sum(count(name, "calls") for name in tracing.SPAN_NAMES), "count")
    untraced_s = statistics.fmean(untraced_times)
    out["trace.op_s"] = metric(op_s, "s")
    out["trace.untraced_op_s"] = metric(untraced_s, "s")
    out["trace.overhead_s"] = metric(op_s - untraced_s, "s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    pin_threads()
    src_dir = os.path.abspath("src")
    workloads = import_workloads(src_dir)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_probe:
        print(repr(setup_s), repr(calibration.block_s(0.2)))
        return 0
    if args.record_reference:
        if args.seed != workloads.DEFAULT_SEED:
            raise SystemExit("bench: references are recorded on the "
                             f"default seed {workloads.DEFAULT_SEED}")
        return record_reference(work)

    env = environment(src_dir)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(REFERENCE_PATH) as handle:
            reference = json.load(handle)[args.workload]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "inputs": work.inputs, "env": env}), flush=True)

    record = {"args": vars(args), "env": env}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = closed_loop(work, reference, args.seconds, tracer)
        finally:
            tracer.uninstall()
        profiles = tracing.per_op_profiles(tracer.spans)
        untraced = [op["op_s"] for op in run["ops"] if not op["traced"]]
        metrics = layer_metrics(profiles, untraced) \
            if profiles and untraced else {}
        record["absent"] = tracer.absent
    else:
        setup_times = [(setup_s, calibration.block_s(0.2))] + setup_probes(
            args.workload, args.seed, SETUP_PROBES)
        run = closed_loop(work, reference, args.seconds)
        metrics = end_to_end_metrics(setup_times, run["ops"]) \
            if run["ops"] else {}
        record["setup_times"] = setup_times
    failed = len({index for index, _ in run["failures"]})
    correct = failed == 0 and bool(metrics)

    record.update(metrics=metrics, ops=run["ops"], failures=run["failures"])
    stem = os.path.join(
        ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.json", {"args": vars(args), "env": env})

    for index, msg in run["failures"]:
        print(f"bench: operation {index} FAILED: {msg}", file=sys.stderr)
    if args.trace and tracer.absent:
        print(f"bench: absent entry points: {tracer.absent}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    if metrics and not args.trace:
        wall = statistics.median(op["op_s"] for op in run["ops"])
        setup_wall = statistics.median(setup for setup, _ in setup_times)
        print(f"wall time, not gated: op_s = {wall:.6g} s, "
              f"setup_s = {setup_wall:.6g} s")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_reference(work) -> int:
    values = work.reference_values(work.op(0))
    stored = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as handle:
            stored = json.load(handle)
    stored[work.name] = values
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
