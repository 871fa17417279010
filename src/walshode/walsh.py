"""Walsh basis functions on [0,1] and their two standard orderings.

The length-N = 2^n sign table used everywhere in this package is the
character table of the group (Z/2Z)^n:

    chi_k(x) = (-1)^popcount(k AND x),   0 <= k, x < N

Row k of that table, read as a piecewise-constant function on the N
equal cells of [0,1], is the k-th Walsh function in the *natural*
(Hadamard) ordering: the table equals the n-fold Kronecker power of
[[1, 1], [1, -1]].

The *sequency* ordering sorts the same N functions by their number of
sign changes.  Natural index of the function at sequency position s:

    nat = bit_reverse(s XOR (s >> 1), n)        (binary -> Gray -> reverse)

The classical recursive construction

    W_0(x)      = 1                      on [0,1]
    W_2j(x)     = W_j(2x) + (-1)^j W_j(2x-1)
    W_2j+1(x)   = W_j(2x) - (-1)^j W_j(2x-1)
    W_j(x)      = 0 for x < 0 or x > 1

produces the sequency-ordered family directly and serves as the
independent oracle for the ordering permutation.  Values at dyadic jump
points are convention-dependent; everything here evaluates by cell
membership (x = 1 belongs to the last cell), which is well defined at
the midpoints (2m+1)/(2N) this package samples on.

Functions are discretized at midpoints: sample m of a SampledFunction
holds f(t_m) with t_m = t_lo + (t_hi - t_lo)(2m+1)/(2N).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import require_bytes


class WalshOrdering(enum.Enum):
    NATURAL = "natural"
    SEQUENCY = "sequency"


def _require_qubits(n: int) -> int:
    """Return N = 2^n, or raise before shifting unless n is an integer (no bool) in [1, 62]."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if not 1 <= n <= 62:  # int64 indices
        raise ValueError(f"qubit count must be in [1, 62], got {n}")
    return 1 << int(n)


def _require_index(k: int, N: int | None, what: str) -> int:
    """Return k as an int, or raise unless it is an integer (no bool) in [0, N) (N None: >= 0)."""
    if isinstance(k, bool) or not hasattr(k, "__index__"):
        raise ValueError(f"{what} must be an integer, got {k!r}")
    if N is None:
        if k < 0:
            raise ValueError(f"{what} must be >= 0, got {k}")
    elif not 0 <= k < N:
        raise IndexError(f"{what}={k} out of range for n={N.bit_length() - 1}")
    return int(k)


def _require_ordering(ordering: WalshOrdering) -> WalshOrdering:
    """Return the ordering, or raise unless it is a WalshOrdering member (not its name)."""
    if not isinstance(ordering, WalshOrdering):
        raise ValueError(f"ordering must be a WalshOrdering, got {ordering!r}")
    return ordering


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise unless every entry of a is finite, naming the first that is not."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite, got {a[~np.isfinite(a)][0]}")


def _cell(t: float, N: int) -> int | None:
    """Index of the cell of [0,1] holding t (t = 1 in the last); None outside."""
    if np.isnan(t):
        raise ValueError(f"t must be a number, got {t}")
    if t < 0.0 or t > 1.0:
        return None
    return N - 1 if t >= 1.0 else int(t * N)


def _require_power_of_two(size: int) -> int:
    """Return n = log2(size) or raise for invalid lengths."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"vector length must be a power of two >= 2, got {size}")
    return size.bit_length() - 1


def _require_vector(a: np.ndarray, what: str = "input") -> int:
    """Return n = log2(a.size) for a 1-D array of power-of-two length, else raise."""
    if a.ndim != 1:
        raise ValueError(f"{what} must form a 1-D vector, got shape {a.shape}")
    return _require_power_of_two(a.size)


def _require_domain(domain: tuple[float, float]) -> tuple[float, float]:
    """Return the domain as floats, or raise unless t_lo < t_hi with a finite width."""
    lo, hi = map(float, domain)
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite width needs finite ends
        raise ValueError(f"domain must be finite with t_lo < t_hi and a finite width, got {domain}")
    return lo, hi


def midpoints(N: int, domain: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """The N cell midpoints t_m = t_lo + (t_hi - t_lo)(2m+1)/(2N) of the domain."""
    lo, hi = domain
    return lo + (hi - lo) * ((2.0 * np.arange(N) + 1.0) / (2.0 * N))  # exact fraction: no overflow


def _bit_reverse(v, n: int):
    """Reverse the low n bits of v (scalar int or ndarray)."""
    out = v * 0
    x = v
    for _ in range(n):
        out = (out << 1) | (x & 1)
        x = x >> 1
    return out


def _binary_to_gray(v):
    return v ^ (v >> 1)


def character_eval(k: int, x: int, n: int) -> int:
    """chi_k(x) = (-1)^popcount(k AND x) for the group {0,1}^n."""
    N = _require_qubits(n)
    k = _require_index(k, N, "character index k")
    x = _require_index(x, N, "group element x")
    return -1 if (k & x).bit_count() & 1 else 1


def character_table(n: int) -> np.ndarray:
    """Full N x N sign table, row k = chi_k; dtype int8.

    Its peak holds the N int32 indices, their pairwise ANDs and the uint8
    popcounts (``np.bitwise_count``): N(5N + 4) bytes, plus the broadcast
    AND's buffers for its two operands, 8 * np.getbufsize() bytes.  It
    is refused before allocating, with ResourceLimitError, once that passes
    errors.MAX_ALLOC_BYTES (from n = 14, far below int32's limit);
    character_eval gives lazy access beyond that.
    """
    N = _require_qubits(n)
    require_bytes(N * (5 * N + 4) + 8 * np.getbufsize(), f"character table for n={n}")
    idx = np.arange(N, dtype=np.int32)
    odd = np.bitwise_count(idx[:, None] & idx) & 1  # the ANDs are freed once counted
    return 1 - 2 * odd.astype(np.int8)  # signed: in uint8, 1 - 2 would wrap to 255


def sequency_walsh_recursive(j: int, x: float) -> int:
    """Direct evaluation of the recursive (sequency-ordered) definition.

    Independent oracle for the ordering permutation; intended for
    evaluation at cell midpoints, where the recursion never lands on a
    jump point.
    """
    j = _require_index(j, None, "function index")
    if x < 0.0 or x > 1.0:
        return 0
    if j == 0:
        return 1
    half = j // 2
    sign = -1 if half & 1 else 1
    left = sequency_walsh_recursive(half, 2.0 * x)
    right = sequency_walsh_recursive(half, 2.0 * x - 1.0)
    return left + sign * right if j % 2 == 0 else left - sign * right


def ordering_permutation(
    n: int, source: WalshOrdering, target: WalshOrdering
) -> np.ndarray:
    """Gather permutation p with converted[i] = original[p[i]].

    natural -> sequency:  p[s] = bit_reverse(s XOR (s >> 1), n), so the
    permuted character table has exactly s sign changes in row s;
    sequency -> natural is its inverse.
    """
    N = _require_qubits(n)
    _require_ordering(source)
    _require_ordering(target)
    idx = np.arange(N, dtype=np.int64)
    if source == target:
        return idx
    forward = _bit_reverse(_binary_to_gray(idx), n)
    return forward if target == WalshOrdering.SEQUENCY else np.argsort(forward)


def walsh_value(
    k: int, t: float, n: int, ordering: WalshOrdering = WalshOrdering.NATURAL
) -> int:
    """Value of the k-th Walsh function at t; 0 outside [0,1], ValueError for NaN."""
    N = _require_qubits(n)
    k = _require_index(k, N, "function index k")
    if _require_ordering(ordering) == WalshOrdering.SEQUENCY:
        k = int(_bit_reverse(_binary_to_gray(k), n))
    cell = _cell(t, N)
    return 0 if cell is None else character_eval(k, cell, n)


@dataclass(frozen=True)
class SampledFunction:
    """Finite real samples of a function at the N = 2^n cell midpoints of a domain."""

    values: np.ndarray
    domain: tuple[float, float] = (0.0, 1.0)
    n: int = field(init=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        n = _require_vector(vals, "samples")
        _require_finite(vals, "samples")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "domain", _require_domain(self.domain))
        object.__setattr__(self, "n", n)

    @property
    def midpoints(self) -> np.ndarray:
        return midpoints(self.values.size, self.domain)


def discretize(f, n: int, domain: tuple[float, float] = (0.0, 1.0)) -> SampledFunction:
    """Sample a callable at the N midpoints of the domain, checked before the first call."""
    mids = midpoints(_require_qubits(n), _require_domain(domain))
    vals = np.array([float(f(t)) for t in mids])
    if not np.all(np.isfinite(vals)):
        bad = mids[~np.isfinite(vals)][0]
        raise ValueError(f"function returned a non-finite sample at t={bad}")
    return SampledFunction(vals, domain)


def reconstruct(coeffs, t: float) -> float:
    """Pointwise synthesis (1/sqrt(N)) * sum_k coeffs[k] * W_k(t).

    Piecewise constant on the N cells of [0,1]; 0 outside; ValueError for
    NaN t.  ``coeffs`` is in natural order: gather a sequency spectrum with
    ordering_permutation(n, SEQUENCY, NATURAL) first.  One signed sum over the
    character row of t's cell; walsh_value, one term at a time, is its oracle.
    """
    coeffs = np.array(coeffs, dtype=float)
    N = 1 << _require_vector(coeffs, "coefficients")
    cell = _cell(t, N)
    if cell is None:
        return 0.0
    odd = np.bitwise_count(np.arange(N) & cell) & 1
    return float(coeffs @ (1 - 2 * odd.astype(np.int8))) / np.sqrt(N)
