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
from dataclasses import dataclass, field

import numpy as np

from .errors import require_bytes


class WalshOrdering(enum.Enum):
    NATURAL = "natural"
    SEQUENCY = "sequency"


def _require_qubits(n: int) -> int:
    """Return N = 2^n, or raise before shifting unless 1 <= n <= 62 (int64 indices)."""
    if not 1 <= n <= 62:
        raise ValueError(f"qubit count must be in [1, 62], got {n}")
    return 1 << n


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
    """Return the domain as floats, or raise unless finite with t_lo < t_hi."""
    lo, hi = map(float, domain)
    if not -np.inf < lo < hi < np.inf:  # also False for nan
        raise ValueError(f"domain must be finite with t_lo < t_hi, got {domain}")
    return lo, hi


def midpoints(N: int, domain: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """The N cell midpoints t_m = t_lo + (t_hi - t_lo)(2m+1)/(2N) of the domain."""
    lo, hi = domain
    return lo + (hi - lo) * (2.0 * np.arange(N) + 1.0) / (2.0 * N)


def _parity(v: np.ndarray) -> np.ndarray:
    """Elementwise popcount parity (works for any int width up to 64 bits)."""
    v = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


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


def _gray_to_binary(g):
    # Prefix XOR from the top bit down; fixed shifts cover 64-bit values.
    b = g
    for shift in (1, 2, 4, 8, 16, 32):
        b = b ^ (b >> shift)
    return b


def character_eval(k: int, x: int, n: int) -> int:
    """chi_k(x) = (-1)^popcount(k AND x) for the group {0,1}^n."""
    N = _require_qubits(n)
    if not 0 <= k < N:
        raise IndexError(f"character index k={k} out of range for n={n}")
    if not 0 <= x < N:
        raise IndexError(f"group element x={x} out of range for n={n}")
    return -1 if (k & x).bit_count() & 1 else 1


def character_table(n: int) -> np.ndarray:
    """Full N x N sign table, row k = chi_k; dtype int8.

    Building it takes 8 N^2 bytes of int64 parities, so it is refused
    before allocating, with ResourceLimitError, once that passes
    errors.MAX_ALLOC_BYTES (from n = 14); character_eval gives lazy
    access beyond that.
    """
    N = _require_qubits(n)
    require_bytes(8 * N * N, f"character table for n={n}")
    idx = np.arange(N, dtype=np.int64)
    par = _parity(idx[:, None] & idx[None, :])
    return (1 - 2 * par).astype(np.int8)


def sequency_walsh_recursive(j: int, x: float) -> int:
    """Direct evaluation of the recursive (sequency-ordered) definition.

    Independent oracle for the ordering permutation; intended for
    evaluation at cell midpoints, where the recursion never lands on a
    jump point.
    """
    if j < 0:
        raise ValueError(f"function index must be >= 0, got {j}")
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
    permuted character table has exactly s sign changes in row s.
    """
    N = _require_qubits(n)
    idx = np.arange(N, dtype=np.int64)
    if source == target:
        return idx
    if source == WalshOrdering.NATURAL and target == WalshOrdering.SEQUENCY:
        return _bit_reverse(_binary_to_gray(idx), n)
    if source == WalshOrdering.SEQUENCY and target == WalshOrdering.NATURAL:
        return _gray_to_binary(_bit_reverse(idx, n))
    raise ValueError(f"unsupported ordering pair {source} -> {target}")


def walsh_value(
    k: int, t: float, n: int, ordering: WalshOrdering = WalshOrdering.NATURAL
) -> int:
    """Value of the k-th Walsh function at t; 0 outside [0,1], ValueError for NaN."""
    N = _require_qubits(n)
    if not 0 <= k < N:
        raise IndexError(f"function index k={k} out of range for n={n}")
    cell = _cell(t, N)
    if cell is None:
        return 0
    if ordering == WalshOrdering.SEQUENCY:
        k = int(_bit_reverse(_binary_to_gray(k), n))
    return character_eval(k, cell, n)


def sal_index(j: int) -> int:
    """Sequency-ordering index of sal_j (odd-symmetric family): 2j - 1."""
    if j < 1:
        raise ValueError(f"sal index must be >= 1, got {j}")
    return 2 * j - 1


def cal_index(j: int) -> int:
    """Sequency-ordering index of cal_j (even-symmetric family): 2j."""
    if j < 0:
        raise ValueError(f"cal index must be >= 0, got {j}")
    return 2 * j


@dataclass(frozen=True)
class SampledFunction:
    """Real samples of a function at the N = 2^n cell midpoints of a domain."""

    values: np.ndarray
    domain: tuple[float, float] = (0.0, 1.0)
    n: int = field(init=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        n = _require_vector(vals, "samples")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "domain", _require_domain(self.domain))
        object.__setattr__(self, "n", n)

    @property
    def midpoints(self) -> np.ndarray:
        return midpoints(self.values.size, self.domain)


@dataclass(frozen=True)
class SpectralVector:
    """Walsh-domain coefficients tagged with their ordering."""

    coeffs: np.ndarray
    ordering: WalshOrdering = WalshOrdering.NATURAL
    n: int = field(init=False)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        n = _require_vector(coeffs, "coefficients")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "n", n)


def convert_ordering(sv: SpectralVector, target: WalshOrdering) -> SpectralVector:
    perm = ordering_permutation(sv.n, sv.ordering, target)
    return SpectralVector(sv.coeffs[perm], target)


def discretize(f, n: int, domain: tuple[float, float] = (0.0, 1.0)) -> SampledFunction:
    """Sample a callable at the N midpoints of the domain."""
    mids = midpoints(_require_qubits(n), domain)
    vals = np.array([float(f(t)) for t in mids])
    if not np.all(np.isfinite(vals)):
        bad = mids[~np.isfinite(vals)][0]
        raise ValueError(f"function returned a non-finite sample at t={bad}")
    return SampledFunction(vals, domain)


def reconstruct(sv: SpectralVector, t: float) -> float:
    """Pointwise synthesis (1/sqrt(N)) * sum_k coeffs[k] * W_k(t).

    Piecewise constant on the N cells of [0,1]; 0 outside; ValueError for
    NaN t.  One signed sum of the natural-ordered coefficients over the
    character row of t's cell; walsh_value, one term at a time, is its oracle.
    """
    N = sv.coeffs.size
    cell = _cell(t, N)
    if cell is None:
        return 0.0
    coeffs = convert_ordering(sv, WalshOrdering.NATURAL).coeffs
    signs = 1 - 2 * _parity(np.arange(N) & cell)
    return float(coeffs @ signs) / np.sqrt(N)
