"""Classical Walsh-Hadamard transforms with symmetric 1/sqrt(N) normalization.

Two code paths compute the same unitary map:

  * wht_naive: dense sign-table matvec, O(N^2); kept as the oracle.
  * fwht:      butterfly, exactly N*log2(N) additions and subtractions
               plus N final scalings by 1/sqrt(N).

The textbook butterfly runs stages s = 1..n with stride h = 2^(s-1):
each pair (x_j, x_{j+h}) with j & h == 0 becomes
(x_j + x_{j+h}, x_j - x_{j+h}).  fwht runs the same stages in Pease's
constant geometry (M. C. Pease, J. ACM 15(2), 1968), where every stage
maps y[k] = x[2k] + x[2k+1] and y[k + N/2] = x[2k] - x[2k+1]: two numpy
calls, on the same strided views, whatever the stage.

Why the output is bit-identical.  A stage combines the two elements
whose indices differ only in bit 0, as (even, odd), and moves the bit
that tells sum from difference to the top of the index, shifting the
other bits down by one.  So stage s combines bit s-1 of the original
index, the bit the stride-doubling loop combines at stage s, with the
operands in the same (x_j, x_{j+h}) order.  After n stages, stage s's
sign bit sits at bit s-1, where the stride-doubling loop leaves it, so
the output is in natural order.  Every output comes from the same
additions on the same operands, so the two agree bit for bit, signed
zeros included.

Schedule.  Up to _BLOCK elements (512 KiB), the stages ping-pong between
two buffers of the calling thread, the first reading the caller's array,
and the result is scaled into a fresh output while it is still in cache.
Above that, the low log2(_BLOCK) stages only mix elements of one
aligned block, so they run block by block in the same way, reading the
caller's array and leaving each block in the output.  The high stages
are the same schedule along axis 0 of the (N/_BLOCK, _BLOCK) view of
the output, run one column tile at a time in the two halves of a block
scratch; the 1/sqrt(N) scaling is fused into each tile's write-back.
The stages read views of their buffers sliced once, so a stage is two
ufunc calls (N=1024: 24.7 -> 19.5 us a call, 2-CPU x86_64, best of 5000).

From _PARALLEL_ROWS = 16 blocks (N >= 2^20) on, the two passes are
split across W threads, W being the CPUs the process may run on, at
most one per block: worker w takes blocks w, w+W, ..., and, once every
block is done, tiles w, w+W, ....  Each element still gets the same
operations on the same operands, so the output does not depend on W.
Below 16 blocks one thread does both passes (from 2^17 to 2^19 points,
starting the threads cost more than they saved on two CPUs).

Each thread keeps two buffers per size N <= _BLOCK it ran, 16N bytes (2 MiB
over all sizes); a larger call allocates its output and one block scratch
per worker and joins its threads.  The input is only read; calls share nothing.

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
#: Elements per column tile of the high stages, or one column if that is
#: more; the scratch holds two tiles.
_TILE = _BLOCK // 2
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
    """Every constant-geometry stage along axis 0 of x; returns the buffer of the last.

    A stage maps y[k] = x[2k] + x[2k+1] and y[k + L/2] = x[2k] - x[2k+1]
    for the length L of axis 0, alternating between the two buffers of
    views; x is only read, so it may be the caller's array.
    """
    even, odd = x[0::2], x[1::2]
    for stage in range(len(x).bit_length() - 1):
        y, next_even, next_odd, low, high = views[stage % 2]
        np.add(even, odd, out=low)
        np.subtract(even, odd, out=high)
        even, odd = next_even, next_odd
    return y


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
    """Fast transform: constant-geometry butterfly with the scaling fused in.

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
        width = max(1, _TILE // rows)
        grid = out.reshape(rows, _BLOCK)
        workers = min(_cpu_count(), rows) if rows >= _PARALLEL_ROWS else 1

        def blocks(w: int) -> None:
            scratch = np.empty(_BLOCK)
            for row in range(w, rows, workers):
                _stages(v[row * _BLOCK: (row + 1) * _BLOCK], _views(grid[row], scratch))

        def tiles(w: int) -> None:
            scratch = np.empty(max(_BLOCK, 2 * rows * width))
            for col in range(w * width, _BLOCK, workers * width):
                tile = grid[:, col: col + width]
                a, b = scratch[: 2 * tile.size].reshape(2, *tile.shape)
                np.multiply(_stages(tile, _views(a, b)), scale, out=tile)

        if workers == 1:
            blocks(0)
            tiles(0)
        else:
            # Each worker runs in a copy of the caller's context, which holds numpy's error state.
            contexts = [copy_context() for _ in range(workers)]
            with ThreadPoolExecutor(workers) as pool:
                for task in (blocks, tiles):
                    list(pool.map(Context.run, contexts, [task] * workers, range(workers)))
    if count is not None:
        count.additions += N * n
        count.multiplications += N
        count.square_roots += 1
    return out
