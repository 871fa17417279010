"""Classical Walsh-Hadamard transforms with symmetric 1/sqrt(N) normalization.

Two code paths compute the same unitary map:

  * wht_naive: dense sign-table matvec, O(N^2); kept as the oracle.
  * fwht:      in-place butterfly, exactly N*log2(N) additions and
               subtractions plus N final scalings by 1/sqrt(N).

The butterfly is the textbook one: stage h (h = 1, 2, 4, ..., N/2) maps
each pair (x_j, x_{j+h}) with j & h == 0 to
(x_j + x_{j+h}, x_j - x_{j+h}).  Its schedule is cache-aware, and it
allocates no temporaries of size N.  Stages run fused in pairs (radix
4), so one memory pass does two of them; a pass with an odd number of
stages ends with one radix-2 stage.  The stages of stride below _BLOCK
only mix elements of the same aligned block of _BLOCK elements, so they
run block by block while the block stays in cache.  Stages of stride
above _TILE run tile by tile along the stride axis, which keeps the
scratch at _BLOCK / 2 elements (256 KiB, allocated per call) whatever N
is.  Every element still sees the same additions and subtractions, of
the same operands, in the same stride-doubling order; only the order in
which independent elements are visited changes.  So the result is
bit-identical to the one-pass-per-stage loop, and bit-reproducible.

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


#: Elements per block of the low-stride stages: 512 KiB, which stays in L2.
_BLOCK = 1 << 16
#: Longest run of one stage's operand handled by one numpy call.
_TILE = _BLOCK // 4


def _radix4(x0, x1, x2, x3, scratch):
    """Stages h and 2h on the quarters x0..x3 of each group of 4h, in place.

    Stage h: (x0, x1, x2, x3) -> (x0+x1, x0-x1, x2+x3, x2-x3) = (y0, y1, y2, y3).
    Stage 2h: (y0+y2, y1+y3, y0-y2, y1-y3).  The same 8 operations, on the
    same operands, as the two radix-2 stages.
    """
    half = scratch.size // 2
    s = scratch[: x0.size].reshape(x0.shape)
    t = scratch[half: half + x0.size].reshape(x0.shape)
    np.add(x0, x1, out=s)  # y0
    np.subtract(x0, x1, out=t)  # y1
    np.add(x2, x3, out=x0)  # y2
    np.subtract(x2, x3, out=x1)  # y3
    np.subtract(s, x0, out=x2)
    np.add(s, x0, out=x0)
    np.subtract(t, x1, out=x3)
    np.add(t, x1, out=x1)


def _radix2(x0, x1, scratch):
    """Stage h on the halves x0, x1 of each group of 2h, in place."""
    s = scratch[: x0.size].reshape(x0.shape)
    np.subtract(x0, x1, out=s)
    np.add(x0, x1, out=x0)
    np.copyto(x1, s)


def _stages(x: np.ndarray, h: int, scratch: np.ndarray) -> None:
    """Stages of stride h, 2h, ..., x.size/2 on the contiguous x, in place.

    Stride-h groups of x (h <= _TILE) are handled by one numpy call per
    operation; groups of a larger stride are cut into slices of _TILE
    along the stride axis, so the scratch never needs more than
    _BLOCK / 2 elements.
    """
    while h < x.size:
        radix = 4 if 4 * h <= x.size else 2
        # Stride 1 as (groups, radix): 1-D operands, which numpy runs faster.
        groups = x.reshape(-1, radix) if h == 1 else x.reshape(-1, radix, h)
        if h <= _TILE:
            tiles = [groups]
        else:
            tiles = (groups[g: g + 1, :, c: c + _TILE]
                     for g in range(groups.shape[0]) for c in range(0, h, _TILE))
        for tile in tiles:
            parts = [tile[:, i] for i in range(radix)]
            (_radix4 if radix == 4 else _radix2)(*parts, scratch)
        h *= radix


def _butterfly(a: np.ndarray, count: OpCount | None = None) -> np.ndarray:
    """Unnormalized in-place Hadamard butterfly (pure additions/subtractions).

    ``a`` must be C-contiguous.  The stages of stride below _BLOCK run
    block by block, then the rest run over the whole vector; see the
    module docstring for why the result equals the one-pass-per-stage
    loop bit for bit.  The scratch is allocated per call, so concurrent
    calls share nothing.
    """
    N = a.size
    block = min(N, _BLOCK)
    scratch = np.empty(block // 2)
    for part in a.reshape(-1, block):
        _stages(part, 1, scratch)
    _stages(a, block, scratch)
    if count is not None:
        count.additions += N * (N.bit_length() - 1)
    return a


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
    """Fast transform: butterfly then one 1/sqrt(N) scaling pass.

    Works on a fresh contiguous copy, so ``v`` is never modified.  The
    butterfly is blocked and fused in radix-4 pairs (module docstring);
    its output is bit-identical to the plain stride-doubling loop, and
    ``count`` gains exactly N*log2(N) additions, N multiplications and
    one square root.
    """
    a = np.array(v, dtype=float, order="C")
    _require_vector(a)
    _butterfly(a, count)
    a *= 1.0 / math.sqrt(a.size)
    if count is not None:
        count.multiplications += a.size
        count.square_roots += 1
    return a


def iwht(v, count: OpCount | None = None) -> np.ndarray:
    """Inverse transform; identical to fwht because the map is an involution."""
    return fwht(v, count)
