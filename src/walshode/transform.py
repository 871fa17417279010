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
the output and one scratch array of the same size, the first reading
the caller's array, and the result is scaled while it is still in
cache.  Above that, the low log2(_BLOCK) stages only mix elements of one
aligned block, so they run block by block in the same way, reading the
caller's array and leaving each block in the output.  The high stages
are the same schedule along axis 0 of the (N/_BLOCK, _BLOCK) view of
the output, run one column tile at a time in the two halves of the
block scratch; the 1/sqrt(N) scaling is fused into each tile's
write-back.  A call holds only the output and that scratch, allocated
per call: the input is never copied or written, and concurrent calls
share nothing.

With the symmetric normalization the transform is an involution, so the
inverse transform is the same computation (iwht is provided for call-site
readability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _stages(x: np.ndarray, dst: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Every constant-geometry stage along axis 0 of x, ending in dst.

    A stage maps y[k] = x[2k] + x[2k+1] and y[k + L/2] = x[2k] - x[2k+1]
    for the length L of axis 0.  The stages alternate between dst and
    tmp, starting with the one that puts the last stage in dst; x is
    only read, so it may be the caller's array.
    """
    half = len(x) // 2
    targets = (dst, tmp) if half.bit_length() % 2 else (tmp, dst)
    for stage in range(half.bit_length()):
        y = targets[stage % 2]
        even, odd = x[0::2], x[1::2]
        np.add(even, odd, out=y[:half])
        np.subtract(even, odd, out=y[half:])
        x = y
    return dst


def wht_naive(v, count: OpCount | None = None) -> np.ndarray:
    """Transform by explicit sign-table matvec; the O(N^2) oracle."""
    a = np.asarray(v, dtype=float)
    n = _require_vector(a)
    N = a.size
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
    out = np.empty(N)
    if N <= _BLOCK:
        _stages(v, out, np.empty(N))
        out *= scale
    else:
        rows = N // _BLOCK
        width = max(1, _TILE // rows)
        scratch = np.empty(max(_BLOCK, 2 * rows * width))
        for lo in range(0, N, _BLOCK):
            _stages(v[lo: lo + _BLOCK], out[lo: lo + _BLOCK], scratch[:_BLOCK])
        grid = out.reshape(rows, _BLOCK)
        for col in range(0, _BLOCK, width):
            tile = grid[:, col: col + width]
            a, b = scratch[: 2 * tile.size].reshape(2, *tile.shape)
            np.multiply(_stages(tile, a, b), scale, out=tile)
    if count is not None:
        count.additions += N * n
        count.multiplications += N
        count.square_roots += 1
    return out


def iwht(v, count: OpCount | None = None) -> np.ndarray:
    """Inverse transform; identical to fwht because the map is an involution."""
    return fwht(v, count)
