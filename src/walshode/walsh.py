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
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import require_bytes


class WalshOrdering(enum.Enum):
    NATURAL = "natural"
    SEQUENCY = "sequency"


def _require_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """Return value as an int, or raise unless it is an integer (no bool) in [lo, hi], if given."""
    if not isinstance(value, bool) and hasattr(value, "__index__"):
        k = operator.index(value)
        if (lo is None or k >= lo) and (hi is None or k <= hi):
            return k
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValueError(f"{what} must be an integer{bounds}, got {value!r}")


def _require_real(value, what: str, lo: float | None = None, strict: bool = False) -> float:
    """Return value as a float, or raise unless it is a real number (no bool, no nan).

    Given ``lo``, it must also be finite and >= lo (> lo if ``strict``); without, +-inf pass.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int past float64's range is as far out as an inf
        x = math.inf if value > 0 else -math.inf
    ok = not math.isnan(x) if lo is None else x < math.inf and (x > lo if strict else x >= lo)
    if ok:
        return x
    need = "a real number" if lo is None else f"{'>' if strict else '>='} {lo:g} and finite"
    raise ValueError(f"{what} must be {need}, got {value!r}")


def _require_qubits(n: int) -> int:
    """Return N = 2^n, or raise before shifting unless n is an integer in [1, 62]: int64 indices."""
    return 1 << _require_int(n, "qubit count", 1, 62)


def _require_index(k: int, N: int, what: str) -> int:
    """Return k as an int by the integer rule, or raise IndexError outside [0, N)."""
    k = _require_int(k, what)
    if not 0 <= k < N:
        raise IndexError(f"{what}={k} out of range for n={N.bit_length() - 1}")
    return k


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
    """Index of the cell of [0,1] holding the real t (t = 1 in the last); None outside, as +-inf."""
    t = _require_real(t, "t")
    if t < 0.0 or t > 1.0:
        return None
    return N - 1 if t >= 1.0 else int(t * N)


def _require_power_of_two(size: int) -> int:
    """Return n = log2(size) or raise for invalid lengths."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"vector length must be a power of two >= 2, got {size}")
    return size.bit_length() - 1


def _require_length(N) -> tuple[int, int]:
    """Return (N, log2 N) for a vector length, N as a Python int: its byte counts cannot wrap."""
    N = _require_int(N, "vector length")
    return N, _require_power_of_two(N)


def _require_vector(a: np.ndarray, what: str = "input") -> int:
    """Return n = log2(a.size) for a 1-D array of power-of-two length, else raise."""
    if a.ndim != 1:
        raise ValueError(f"{what} must form a 1-D vector, got shape {a.shape}")
    return _require_power_of_two(a.size)


def _require_domain(domain: tuple[float, float]) -> tuple[float, float]:
    """Return the domain as floats, or raise unless its ends are real, t_lo < t_hi, width finite."""
    lo, hi = (_require_real(end, "domain end") for end in domain)
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite width needs finite ends
        raise ValueError(f"domain must be finite with t_lo < t_hi and a finite width, got {domain}")
    return lo, hi


def midpoints(N: int, domain: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """The N cell midpoints t_m = t_lo + (t_hi - t_lo)(2m+1)/(2N) of the domain."""
    lo, hi = domain
    return lo + (hi - lo) * ((2.0 * np.arange(N) + 1.0) / (2.0 * N))  # exact fraction: no overflow


def _bit_reverse(v: int, n: int) -> int:
    """Reverse the low n bits of v."""
    out = 0
    for _ in range(n):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


def _binary_to_gray(v: int) -> int:
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
    j = _require_int(j, "function index", 0)
    if not 0.0 <= _require_real(x, "x") <= 1.0:
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
    permuted character table has exactly s sign changes in row s; the reflected
    Gray code doubles p in place as (2 p, 2 reversed(p) + 1).  sequency -> natural
    is its scattered inverse.  Charged first: 8N bytes, or 24N for the inverse.
    """
    N = _require_qubits(n)
    inverse = (_require_ordering(source), _require_ordering(target)) == (
        WalshOrdering.SEQUENCY, WalshOrdering.NATURAL)
    require_bytes((24 if inverse else 8) * N, f"ordering permutation for n={n}")
    if source == target:
        return np.arange(N, dtype=np.int64)
    p = np.zeros(N, dtype=np.int64)
    p[1] = 1  # p for 2 points
    for s in range(1, n):
        h = 1 << s
        p[:h] *= 2
        np.add(p[h - 1::-1], 1, out=p[h:2 * h])
    if inverse:
        p, forward = np.empty_like(p), p
        p[forward] = np.arange(N)
    return p


def walsh_value(
    k: int, t: float, n: int, ordering: WalshOrdering = WalshOrdering.NATURAL
) -> int:
    """Value of the k-th Walsh function at t; 0 outside [0,1], ValueError for non-real or nan t."""
    N = _require_qubits(n)
    k = _require_index(k, N, "function index k")
    if _require_ordering(ordering) == WalshOrdering.SEQUENCY:
        k = _bit_reverse(_binary_to_gray(k), n)
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
    """Sample a callable at the N midpoints of the domain, checked before the first call.

    Charged first: midpoints, samples, their checked copy and a mask (25N bytes), plus 2 KiB."""
    N = _require_qubits(n)
    require_bytes(25 * N + 2048, f"samples for n={n}")
    mids = midpoints(N, _require_domain(domain))
    vals = np.fromiter((float(f(t)) for t in mids), float, N)
    if not np.all(np.isfinite(vals)):
        bad = mids[~np.isfinite(vals)][0]
        raise ValueError(f"function returned a non-finite sample at t={bad}")
    return SampledFunction(vals, domain)


def reconstruct(coeffs, t: float) -> float:
    """Pointwise synthesis (1/sqrt(N)) * sum_k coeffs[k] * W_k(t).

    Piecewise constant on the N cells of [0,1]; 0 outside; ValueError for
    nan or a non-real t.  ``coeffs`` is in natural order: gather a sequency spectrum with
    ordering_permutation(n, SEQUENCY, NATURAL) first.  One signed sum over the
    character row of t's cell; walsh_value, one term at a time, is its oracle.
    """
    coeffs = np.array(coeffs, dtype=float)
    N = 1 << _require_vector(coeffs, "coefficients")
    cell = _cell(t, N)
    if cell is None:
        return 0.0
    odd = np.bitwise_count(np.arange(N) & cell) & 1
    return float(coeffs / np.sqrt(N) @ (1 - 2 * odd.astype(np.int8)))  # scaled, then summed
