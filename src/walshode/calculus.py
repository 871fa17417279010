"""Operational calculus in the Walsh domain: integration and differentiation.

In the time domain, running integration of a piecewise-constant function
from 0 to the cell midpoints is the lower-triangular operator

    J[m][j] = 1/N   for j < m      (full cells)
            = 1/2N  for j = m      (half of the current cell)
            = 0     otherwise

Its Walsh-domain image I_N = H J H (H the normalized sign table) is the
recursive operational matrix of Chen & Hsiao (Int. J. Systems Sci., 1975)
written in the natural ordering.  It has 2N-1 nonzeros in closed form:
with low(m) the lowest set bit of m,

    I[0, 0] = 1/2
    I[m - low(m), m] =  low(m) / 2N      for 1 <= m < N
    I[m, m - low(m)] = -low(m) / 2N

The differentiation matrix D_N = I_N^-1 = H J^-1 H is built from I_{N/2}
(I_1 = [1/2]), a copy of which also fills the even indices of I_N:

    I_N[0::2, 0::2] = I_{N/2}
    D_N[1::2, 1::2] = 4N^2 I_{N/2}
    D[k, k+1] = -2N,  D[k+1, k] = 2N        for even k; no other nonzeros

Every entry is a dyadic rational, so the float64 operators are exact.
Each is stored as index and value arrays built in O(N) and applied in
O(N); the dense N x N form is built on each request, for tables and
tests, and never kept.

integrate_sampled(values, domain) integrates sample arrays entirely through
transforms: WHT(I_N * WHT(values)) times the domain width, with WHT = fwht,
or the simulated quantum route hybrid_wht when a HybridConfig cfg is passed.
Through fwht it equals (cumsum(values) - values/2) * width/N to roundoff.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import _overflow_rule, require_bytes
from .hybrid import HybridConfig, hybrid_wht
from .transform import fwht
from .walsh import _require_domain, _require_finite, _require_length, _require_vector

_cache: dict[tuple[str, int], "OperationalMatrix"] = {}
_cache_lock = threading.Lock()


@dataclass(frozen=True, eq=False)
class OperationalMatrix:
    """Immutable sparse N x N Walsh-domain operator: its 2N-1 nonzeros.

    ``apply`` is the O(N) product; ``entries`` is the dense form, built
    afresh on each access (never kept) and refused above the allocation cap.
    """

    kind: str
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def apply(self, c) -> np.ndarray:
        """Operator times ``c`` of shape (N,), read as float64, a non-finite entry unchecked: a
        gather, then a scatter-add in a fixed order, ``np.add.at``, under the caller's numpy
        error state, which an overflow in the products or in the sums follows."""
        c = np.asarray(c, dtype=float)
        N = 1 << self.n
        if c.shape != (N,):
            raise ValueError(f"the {self.kind} matrix takes shape {(N,)}, got shape {c.shape}")
        out = np.zeros(N)
        np.add.at(out, self.rows, self.values * c[self.cols])  # each row's terms in array order
        return out

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense N x N array, for tables and tests: 8N^2 bytes and a 3 KiB scatter."""
        N = 1 << self.n
        require_bytes(8 * N * N + 4096, f"dense {self.kind} matrix at n={self.n}")
        dense = np.zeros((N, N))
        dense[self.rows, self.cols] = self.values
        dense.flags.writeable = False
        return dense


def time_integration_operator(N: int) -> np.ndarray:
    """Midpoint running-integration operator J (time domain, exact); charged 9N^2: mask and J."""
    N, _ = _require_length(N)
    require_bytes(9 * N * N, f"time integration operator at N={N}")
    J = np.tri(N, N, -1)
    J /= N
    np.fill_diagonal(J, 1.0 / (2.0 * N))
    return J


def _write_integration(N: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Write I_N's 2N-1 nonzeros (module docstring) into slots [0, 2N-1), with no temporary."""
    rows[0], cols[0], values[0] = 0, 0, 0.5
    m, k = cols[1:N], rows[1:N]
    m[...] = 1
    np.add.accumulate(m, out=m)  # 1, ..., N-1
    np.negative(m, out=k)
    k &= m  # low(m)
    values[1:N] = k  # cast here: np.divide(k, ...) would buffer the cast
    values[1:N] /= 2.0 * N
    np.subtract(m, k, out=k)
    rows[N:2 * N - 1], cols[N:2 * N - 1] = m, k
    np.negative(values[1:N], out=values[N:2 * N - 1])


def _write_differentiation(N: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Write D_N's 2N-1 nonzeros: 4N^2 I_{N/2} at odd indices, then D[k, k+1] and D[k+1, k]."""
    _write_integration(N // 2, rows, cols, values)
    for index in rows[:N - 1], cols[:N - 1]:
        np.add(np.multiply(index, 2, out=index), 1, out=index)
    np.multiply(values[:N - 1], 4.0 * N * N, out=values[:N - 1])
    mid = 3 * N // 2 - 1  # slots [N-1, mid) hold D[k, k+1], slots [mid, 2N-1) D[k+1, k]
    k, k1 = rows[N - 1:mid], rows[mid:]
    k[...] = 2
    k[0] = 0
    np.add.accumulate(k, out=k)  # 0, 2, ..., N-2
    np.add(k, 1, out=k1)
    cols[N - 1:mid], cols[mid:] = k1, k
    values[N - 1:mid], values[mid:] = -2.0 * N, 2.0 * N


def _operator(kind: str, N: int, write) -> OperationalMatrix:
    N, n = _require_length(N)
    key = (kind, N)
    with _cache_lock:
        if key not in _cache:
            # Three arrays of 2N-1 eight-byte items, and 1 KiB for the objects holding them.
            require_bytes(48 * N + 1024, f"sparse {kind} matrix at n={n}")
            arrays = [np.empty(2 * N - 1, dtype) for dtype in (np.int64, np.int64, float)]
            write(N, *arrays)
            for array in arrays:
                array.setflags(write=False)  # unlike .flags, caches no flags object
            _cache[key] = OperationalMatrix(kind, n, *arrays)
        return _cache[key]


def integration_matrix(N: int) -> OperationalMatrix:
    """Walsh-domain integration matrix I_N (cached per size); a build is charged 48N + 1 KiB."""
    return _operator("integration", N, _write_integration)


def differentiation_matrix(N: int) -> OperationalMatrix:
    """Walsh-domain differentiation matrix, the exact inverse of I_N; charged as I_N is."""
    return _operator("differentiation", N, _write_differentiation)


def integrate_sampled(values: np.ndarray, domain: tuple[float, float] = (0.0, 1.0),
                      cfg: HybridConfig | None = None) -> np.ndarray:
    """Antiderivative of midpoint samples, a fresh array vanishing at ``domain``'s left end.

    Shape, finiteness and domain are checked as ``SampledFunction`` checks them.  With ``cfg``
    None both transforms are fwht; else hybrid_wht, drawing from ``cfg.child(0)`` and ``cfg.child(1)``."""
    values = np.asarray(values, dtype=float)
    matrix = integration_matrix(1 << _require_vector(values, "samples"))
    _require_finite(values, "samples")
    lo, hi = _require_domain(domain)
    with _overflow_rule("integrate_sampled"):
        if cfg is None:
            out = fwht(matrix.apply(fwht(values)))
        else:
            spectrum, _ = hybrid_wht(values, cfg.child(0))
            out, _ = hybrid_wht(matrix.apply(spectrum), cfg.child(1))
        return np.multiply(out, hi - lo, out=out)
