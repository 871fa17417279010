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

from .errors import _overflow_rule, require_bytes


class WalshOrdering(enum.Enum):
    NATURAL = "natural"
    SEQUENCY = "sequency"


def _require_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """Return value as an int, or raise unless it is an integer (no bool) in [lo, hi], if given."""
    if type(value) is int or not isinstance(value, bool) and hasattr(value, "__index__"):
        k = operator.index(value)
        if (lo is None or k >= lo) and (hi is None or k <= hi):
            return k
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValueError(f"{what} must be an integer{bounds}, got {value!r}")


def _require_real(value, what: str, lo: float | None = None, strict: bool = False) -> float:
    """Return value as a float, or raise unless it is a real number (no bool, no nan).

    Given ``lo``, it must also be finite and >= lo (> lo if ``strict``); without, +-inf pass.
    """
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
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


def _require_ordering(ordering: WalshOrdering) -> WalshOrdering:
    """Return the ordering, or raise unless it is a WalshOrdering member (not its name)."""
    if not isinstance(ordering, WalshOrdering):
        raise ValueError(f"ordering must be a WalshOrdering, got {ordering!r}")
    return ordering


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise unless every entry of a is finite, naming the first that is not."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite, got {a[~np.isfinite(a)][0]}")


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
    """Return the two ends as floats, or raise unless they are real, t_lo < t_hi, width finite."""
    try:
        lo, hi = domain
    except (TypeError, ValueError):  # not iterable, or not two ends
        raise ValueError(f"domain must be two ends (t_lo, t_hi), got {domain!r}") from None
    lo, hi = _require_real(lo, "domain end"), _require_real(hi, "domain end")
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite width needs finite ends
        raise ValueError(f"domain must be finite with t_lo < t_hi and a finite width, got {domain}")
    return lo, hi


def midpoints(N: int, domain: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """The N cell midpoints t_m = t_lo + (t_hi - t_lo)(2m+1)/(2N) of the domain, made in place."""
    lo, hi = domain
    t = np.arange(N, dtype=float)
    t *= 2.0
    t += 1.0
    t /= 2.0 * N  # an exact fraction first: no overflow
    t *= hi - lo
    t += lo
    return t


def character_table(n: int) -> np.ndarray:
    """Full N x N sign table, row k = chi_k; dtype int8.

    Its peak holds the N int32 indices, their pairwise ANDs and the uint8
    popcounts (``np.bitwise_count``): N(5N + 4) bytes, plus the broadcast
    AND's buffers for its two operands, 8 * np.getbufsize() bytes.  It
    is refused before allocating, with ResourceLimitError, once that passes
    errors.MAX_ALLOC_BYTES (from n = 14, far below int32's limit).
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
    """Sample f at the N midpoints of the domain, checked before f is called.

    f is called once, with the (N,) float64 midpoint grid, and returns N values (a scalar
    is broadcast), as every right-hand side does: write it in numpy (np.cos, not math.cos).
    Charged first: midpoints, samples, then their checked copy, and a mask: 17N + 2 KiB."""
    N = _require_qubits(n)
    require_bytes(17 * N + 2048, f"samples for n={n}")
    mids = midpoints(N, _require_domain(domain))
    vals = np.broadcast_to(np.asarray(f(mids), dtype=float), N)
    if not np.isfinite(vals).all():
        bad = mids[~np.isfinite(vals)][0]
        raise ValueError(f"function returned a non-finite sample at t={bad}")
    del mids  # before SampledFunction copies the samples
    return SampledFunction(vals, domain)


def reconstruct(coeffs, t: float) -> float:
    """Pointwise synthesis (1/sqrt(N)) * sum_k coeffs[k] * W_k(t).

    Piecewise constant on the N cells of [0,1]; 0 outside; ValueError for
    nan or a non-real t.  ``coeffs`` is in natural order: gather a sequency spectrum with
    ordering_permutation(n, SEQUENCY, NATURAL) first.  One signed sum over the
    character row of t's cell; its oracle is sequency_walsh_recursive, term by term.
    """
    coeffs = np.array(coeffs, dtype=float)
    N = 1 << _require_vector(coeffs, "coefficients")
    t = _require_real(t, "t")
    if not 0.0 <= t <= 1.0:
        return 0.0
    cell = N - 1 if t == 1.0 else int(t * N)  # t = 1 belongs to the last cell
    odd = np.bitwise_count(np.arange(N) & cell) & 1
    with _overflow_rule("reconstruct"):
        return float(coeffs / np.sqrt(N) @ (1 - 2 * odd.astype(np.int8)))  # scaled, then summed
