"""Classical Walsh-Hadamard transforms with symmetric 1/sqrt(N) normalization.

Two code paths compute the same unitary map:

  * wht_naive: dense sign-table matvec, O(N^2); kept as the oracle.
  * fwht:      butterfly, exactly N*log2(N) additions and subtractions
               plus N final scalings by 1/sqrt(N).

The textbook butterfly runs stages s = 1..n with stride h = 2^(s-1):
each pair (x_j, x_{j+h}) with j & h == 0 becomes
(x_j + x_{j+h}, x_j - x_{j+h}).  Over L <= _BLOCK elements, fwht runs
them in Pease's constant geometry (M. C. Pease, J. ACM 15(2), 1968),
where every stage maps y[k] = x[2k] + x[2k+1] and y[k + L/2] =
x[2k] - x[2k+1]: two numpy calls, on views sliced once whatever the
stage.

Why the output is bit-identical.  A stage combines the two elements
whose indices differ only in bit 0, as (even, odd), and moves the bit
that tells sum from difference to the top of the index, shifting the
other bits down by one.  So stage s combines bit s-1 of the original
index, the bit the stride-doubling loop combines at stage s, with the
operands in the same (x_j, x_{j+h}) order.  After the last stage, stage
s's sign bit sits at bit s-1, where the stride-doubling loop leaves it,
so the result is in natural order.  Every output comes from the same
additions on the same operands, so the two agree bit for bit, signed
zeros included.

Schedule.  Up to _BLOCK elements (512 KiB), the stages ping-pong between
two buffers of the calling thread, the first reading the caller's array,
and the result is scaled into a fresh output while it is still in cache.
Above that, the low log2(_BLOCK) stages only mix elements of one
aligned block, so they run block by block in the same way, reading the
caller's array and leaving each block in the output.  The high stages
never mix columns of the (N/_BLOCK, _BLOCK) output grid: they are the
stride-doubling loop itself, run in place on one column chunk at a time,
each ufunc call on one contiguous row run, the last stage scaling its
results (chunked passes: D. H. Bailey, J. Supercomputing 4, 1990).

From _PARALLEL_ROWS = 16 blocks (N >= 2^20) on, the two passes are
split across W threads, W being the CPUs the process may run on, at
most one per block: worker w takes blocks w, w+W, ..., and, once every
block is done, chunks w, w+W, ... of at least W.  Each element still
gets the same operations on the same operands, so the output does not
depend on W.

Each thread keeps two buffers per size N <= _BLOCK it ran, 16N bytes (2 MiB
over all sizes); a larger call allocates its output and, per worker, a block
then a run of scratch.  The input is only read; calls share nothing.

With the symmetric normalization the transform is an involution: fwht
is also the inverse transform.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import Context, copy_context
from dataclasses import dataclass

import numpy as np

from .errors import require_bytes
from .walsh import _require_vector, character_table


@dataclass
class OpCount:
    """Arithmetic tally for one counting scope (never shared globally)."""

    additions: int = 0
    multiplications: int = 0
    square_roots: int = 0

    @property
    def total(self) -> int:
        return self.additions + self.multiplications + self.square_roots

    def as_dict(self) -> dict[str, int]:
        return {
            "additions": self.additions,
            "multiplications": self.multiplications,
            "square_roots": self.square_roots,
            "total": self.total,
        }


#: Elements per block of the low stages: 512 KiB, which stays in L2.
_BLOCK = 1 << 16
#: Most elements per column chunk of the high stages: 128 KiB, a worker's scratch.
_RUN = _BLOCK // 4
#: Fewest blocks (N / _BLOCK) at which the two passes are split across
#: threads; below it, starting them costs more than they save.
_PARALLEL_ROWS = 16


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _views(dst: np.ndarray, tmp: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """dst and tmp with their even/odd/low/high views, ordered so that _stages ends in dst."""
    half = len(dst) // 2
    return [(y, y[0::2], y[1::2], y[:half], y[half:])
            for y in ((dst, tmp) if half.bit_length() % 2 else (tmp, dst))]


def _stages(x: np.ndarray, views: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """Every constant-geometry stage of x; returns the buffer of the last.

    A stage maps y[k] = x[2k] + x[2k+1] and y[k + L/2] = x[2k] - x[2k+1]
    for the length L of x, alternating between the two buffers of views;
    x is only read, so it may be the caller's array.
    """
    even, odd = x[0::2], x[1::2]
    for stage in range(len(x).bit_length() - 1):
        y, next_even, next_odd, low, high = views[stage % 2]
        np.add(even, odd, low)
        np.subtract(even, odd, high)
        even, odd = next_even, next_odd
    return y


def _high_stages(runs: np.ndarray, tmp: np.ndarray, scale: float) -> None:
    """Stride-doubling stages over the rows of runs, in place, the last one scaling its results."""
    for h in (1 << s for s in range(len(runs).bit_length() - 1)):
        for a, b in ((runs[j], runs[j + h]) for j in range(len(runs)) if not j & h):
            np.add(a, b, tmp)
            np.subtract(a, b, b)
            if 2 * h < len(runs):
                a[...] = tmp
            else:
                np.multiply(b, scale, b)
                np.multiply(tmp, scale, a)


#: Per thread, in the dict "by_size": the _views of two buffers for each size up to _BLOCK it ran.
_workspace = threading.local()


def _require_naive_bytes(n: int) -> None:
    """Refuse, with ResourceLimitError, a naive transform at n whose 9N^2 bytes pass the cap."""
    require_bytes(9 * 4**n, f"naive transform at n={n}")


def wht_naive(v, count: OpCount | None = None) -> np.ndarray:
    """Transform by explicit sign-table matvec; the O(N^2) oracle.

    It holds the int8 table and its float64 copy, 9N^2 bytes, and is
    refused before building them, with ResourceLimitError, once that
    passes errors.MAX_ALLOC_BYTES (from n = 14).
    """
    a = np.asarray(v, dtype=float)
    n = _require_vector(a)
    N = a.size
    _require_naive_bytes(n)
    table = character_table(n).astype(float)
    out = table @ a
    out *= 1.0 / math.sqrt(N)
    if count is not None:
        count.additions += N * (N - 1)
        count.multiplications += N * N + N
        count.square_roots += 1
    return out


def fwht(v, count: OpCount | None = None) -> np.ndarray:
    """Fast transform: butterfly with the scaling fused in.

    ``v`` is only read, never modified or aliased: the result is a fresh
    array.  Its output is bit-identical to the plain stride-doubling
    loop (module docstring), and ``count`` gains exactly N*log2(N)
    additions, N multiplications and one square root.
    """
    v = np.asarray(v, dtype=float)
    n = _require_vector(v)
    N = v.size
    scale = 1.0 / math.sqrt(N)
    if N <= _BLOCK:
        by_size = _workspace.__dict__.setdefault("by_size", {})
        if N not in by_size:
            by_size[N] = _views(np.empty(N), np.empty(N))
        out = np.multiply(_stages(v, by_size[N]), scale)
    else:
        out = np.empty(N)
        rows = N // _BLOCK
        grid = out.reshape(rows, _BLOCK)
        workers = min(_cpu_count(), rows) if rows >= _PARALLEL_ROWS else 1
        width = min(_RUN, _BLOCK >> (workers - 1).bit_length())

        def blocks(w: int) -> None:
            scratch = np.empty(_BLOCK)
            for row in range(w, rows, workers):
                _stages(v[row * _BLOCK: (row + 1) * _BLOCK], _views(grid[row], scratch))

        def high(w: int) -> None:
            tmp = np.empty(width)
            for col in range(w * width, _BLOCK, workers * width):
                _high_stages(grid[:, col: col + width], tmp, scale)

        if workers == 1:
            blocks(0)
            high(0)
        else:
            # Each worker runs in a copy of the caller's context, which holds numpy's error state.
            contexts = [copy_context() for _ in range(workers)]
            with ThreadPoolExecutor(workers) as pool:
                for task in (blocks, high):
                    list(pool.map(Context.run, contexts, [task] * workers, range(workers)))
    if count is not None:
        count.additions += N * n
        count.multiplications += N
        count.square_roots += 1
    return out
