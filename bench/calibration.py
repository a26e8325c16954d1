"""A fixed numpy/SciPy job that times the host, not the program.

The host this benchmark was built on drifts by about +-10% in speed over
minutes, with CPU time equal to wall time, so a plain wall-clock median
moves between runs by more than any useful bound.  This job does the kind
of work the solvers spend their time in - small HiGHS LPs (the chain LP of
the 1D bounded-Lipschitz metric at 64 nodes) and 2D FFTs - but shares no
code with ``levymfg``, so dividing an operation's time by the time of the
job run next to it cancels the drift and keeps every change to the
program.  Measured on 2 vCPUs: over 40 s windows the spread of the
median op time was 0.17 and that of the ratio 0.08; over windows of five
fresh set-up processes the variation of the median set-up time fell from
10% to 1.6% once divided by a pass timed in the same process.
"""

from __future__ import annotations

import statistics
import time

# Pass time of the job on the host the benchmark was built on (2 vCPUs,
# x86_64); calibrated times are reported in seconds of that host.
REFERENCE_PASS_S = 0.05

_NODES = 64
_LPS = 12
_FFTS = 40


def _build():
    import numpy as np
    from scipy.sparse import diags, vstack

    step = diags([-1.0, 1.0], [0, 1], shape=(_NODES - 1, _NODES))
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((_LPS, _NODES))
    weights -= weights.mean(axis=1, keepdims=True)
    return (vstack([step, -step]).tocsr(), weights,
            np.full(2 * (_NODES - 1), 4.0 / _NODES),
            rng.standard_normal((_NODES, _NODES)))


def chunk_s() -> float:
    """Wall time of one pass of the job (about 0.06 s on the build host)."""
    import numpy as np
    from scipy.optimize import linprog

    a_ub, weights, b_ub, field = _build()
    start = time.perf_counter()
    for w in weights:
        linprog(-w, A_ub=a_ub, b_ub=b_ub, bounds=(-1.0, 1.0), method="highs")
    for _ in range(_FFTS):
        np.fft.ifft2(np.fft.fft2(field))
    return time.perf_counter() - start


def block_s(min_s: float) -> float:
    """Median pass time over passes run for at least ``min_s`` seconds."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < min_s:
        times.append(chunk_s())
    return statistics.median(times)
