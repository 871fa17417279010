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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import require_bytes
from .hybrid import HybridConfig, hybrid_wht
from .transform import fwht
from .walsh import _require_domain, _require_finite, _require_power_of_two, _require_vector

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

    def apply(self, c: np.ndarray) -> np.ndarray:
        """Operator times ``c`` of shape (N,): one gather, then a scatter-add in a fixed order."""
        N = 1 << self.n
        if c.shape != (N,):
            raise ValueError(f"the {self.kind} matrix takes shape {(N,)}, got shape {c.shape}")
        return np.bincount(self.rows, weights=self.values * c[self.cols], minlength=N)

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense N x N array, for tables and tests."""
        N = 1 << self.n
        require_bytes(8 * N * N, f"dense {self.kind} matrix at n={self.n}")
        dense = np.zeros((N, N))
        dense[self.rows, self.cols] = self.values
        dense.flags.writeable = False
        return dense


def time_integration_operator(N: int) -> np.ndarray:
    """Midpoint running-integration operator J (time domain, exact)."""
    _require_power_of_two(N)
    require_bytes(8 * N * N, f"time integration operator at N={N}")
    J = np.tril(np.full((N, N), 1.0 / N), k=-1)
    np.fill_diagonal(J, 1.0 / (2.0 * N))
    return J


def _integration_nonzeros(N: int):
    m = np.arange(1, N)
    low = m & -m
    k = m - low
    rows = np.concatenate(([0], k, m))
    cols = np.concatenate(([0], m, k))
    values = np.concatenate(([0.5], low / (2.0 * N), -low / (2.0 * N)))
    return rows, cols, values


def _differentiation_nonzeros(N: int):
    rows, cols, values = _integration_nonzeros(N // 2)
    even = np.arange(0, N, 2)
    pair = np.full(even.size, 2.0 * N)
    return (np.concatenate((2 * rows + 1, even, even + 1)),
            np.concatenate((2 * cols + 1, even + 1, even)),
            np.concatenate((4.0 * N * N * values, -pair, pair)))


def _operator(kind: str, N: int, nonzeros) -> OperationalMatrix:
    n = _require_power_of_two(N)
    key = (kind, N)
    with _cache_lock:
        if key not in _cache:
            # Three arrays of 2N-1 eight-byte items.
            require_bytes(48 * N, f"sparse {kind} matrix at n={n}")
            arrays = nonzeros(N)
            for array in arrays:
                array.flags.writeable = False
            _cache[key] = OperationalMatrix(kind, n, *arrays)
        return _cache[key]


def integration_matrix(N: int) -> OperationalMatrix:
    """Walsh-domain integration matrix I_N (cached per size)."""
    return _operator("integration", N, _integration_nonzeros)


def differentiation_matrix(N: int) -> OperationalMatrix:
    """Walsh-domain differentiation matrix, the exact inverse of I_N."""
    return _operator("differentiation", N, _differentiation_nonzeros)


def integrate_sampled(values: np.ndarray, domain: tuple[float, float] = (0.0, 1.0),
                      cfg: HybridConfig | None = None) -> np.ndarray:
    """Antiderivative of midpoint samples, a fresh array vanishing at ``domain``'s left end.

    Shape, finiteness and domain are checked as ``SampledFunction`` checks them.  With ``cfg``
    None both transforms are fwht; else hybrid_wht, drawing from ``cfg.child(0)`` and ``cfg.child(1)``."""
    values = np.asarray(values, dtype=float)
    matrix = integration_matrix(1 << _require_vector(values, "samples"))
    _require_finite(values, "samples")
    lo, hi = _require_domain(domain)
    if cfg is None:
        out = fwht(matrix.apply(fwht(values)))
    else:
        spectrum, _ = hybrid_wht(values, cfg.child(0))
        out, _ = hybrid_wht(matrix.apply(spectrum), cfg.child(1))
    return out * (hi - lo)
