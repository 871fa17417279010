"""Reference kernels: fixed work owned by the benchmark, timed to read the host's speed.

This machine's speed drifts by up to 1.9x over seconds to minutes (see
RESULTS.md), and the drift moves interpreter-bound work and numpy work by
different amounts.  So there are three kernels, each shaped like the work
it stands for.  ``run.py`` times a kernel next to each op or set-up, outside
its timed region, and scales that time by ``NOMINAL_S / kernel time``: the
figure a host would give that runs the kernel in its nominal time.  No
change to the program can move a kernel.
"""

from __future__ import annotations

import time
from functools import cache

import numpy as np

#: The usual time of each kernel on the machine of the recorded runs (see
#: RESULTS.md).  Adjusted times are scaled to a host that runs at this speed.
NOMINAL_S = {"tree-walk": 0.006, "sampling": 0.018, "butterfly": 0.012}

_TREE = ("+", ("*", ("x", 0), ("x", 1)),
         ("-", ("c", 3.0), ("^", ("x", 0), ("c", 3.0))))

#: Cumulative table of a uniform distribution over 256 outcomes.
_CUM = np.cumsum(np.full(256, 1.0 / 256))


def tree_walk(iterations: int = 4000) -> float:
    """Walk a small expression tree per sample, as the expression solve does.

    Pure Python, so its time follows the interpreter-bound ops.  Returns a
    value so that no step can be skipped.
    """

    def walk(node, x):
        kind = node[0]
        if kind == "c":
            return node[1]
        if kind == "x":
            return x[node[1]]
        a, b = walk(node[1], x), walk(node[2], x)
        if kind == "+":
            return a + b
        if kind == "-":
            return a - b
        if kind == "*":
            return a * b
        return a ** b

    total, x = 0.0, [0.5, 0.25]
    for i in range(iterations):
        x[0] = i * 1e-4
        total += walk(_TREE, x)
    return total


def sampling(shots: int = 200_000) -> np.ndarray:
    """Draw ``shots`` outcomes by inverse CDF and count them, in numpy's C loops.

    The same mix of uniform draws, ``searchsorted`` and ``bincount`` as
    sampled measurement.  It also stands for the numpy work of set-up,
    which it follows less closely (see RESULTS.md).
    """
    rng = np.random.default_rng(12345)
    draws = np.searchsorted(_CUM, rng.random(shots), side="right")
    np.minimum(draws, _CUM.size - 1, out=draws)
    return np.bincount(draws, minlength=_CUM.size)


@cache
def _butterfly_input() -> np.ndarray:
    """2^20 float64 (8 MiB): past the 2 MiB L2, inside the shared L3."""
    return np.random.default_rng(12345).standard_normal(1 << 20)


def butterfly() -> np.ndarray:
    """Two Walsh butterfly stages over a copy of an 8 MiB vector.

    The same strided numpy adds and stores as the large transform, which
    is bound by the shared L3 and memory; the kernel's peak (24 MiB with
    its input) stays under the large transform's, so that it does not set
    ``peak_rss_mib``.
    """
    a = _butterfly_input().copy()
    for h in (1, a.size // 4):
        pairs = a.reshape(-1, 2, h)
        lo = pairs[:, 0, :] + pairs[:, 1, :]
        hi = pairs[:, 0, :] - pairs[:, 1, :]
        pairs[:, 0, :] = lo
        pairs[:, 1, :] = hi
    return a


KERNELS = {"tree-walk": tree_walk, "sampling": sampling, "butterfly": butterfly}


def seconds(kernel: str) -> float:
    """Wall time of one run of the named kernel."""
    fn = KERNELS[kernel]
    started = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - started) / 1e9
