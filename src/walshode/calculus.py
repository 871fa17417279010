"""Operational calculus in the Walsh domain: integration and differentiation.

In the time domain, running integration of a piecewise-constant function
from 0 to the cell midpoints is the lower-triangular operator

    J[m][j] = 1/N   for j < m      (full cells)
            = 1/2N  for j = m      (half of the current cell)
            = 0     otherwise

Conjugating J with the normalized sign table H gives the Walsh-domain
integration matrix  I_N = H J H, a sparse matrix of dyadic rationals
(2N-1 nonzeros).  The differentiation matrix is its inverse, obtained
exactly by conjugating J^-1, which forward substitution yields in
integer arithmetic: J^-1 = 2N * M^-1 with M = I + 2L (L strictly lower
all-ones).

All entries are dyadic rationals, so the float64 matrices are exact; the
constructions below keep normalization factors out of the butterflies to
preserve that exactness for odd qubit counts too.

Integration of samples runs entirely through transforms:
antiderivative = WHT(I_N * WHT(samples)), rescaled by the domain width.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .hybrid import HybridConfig, hybrid_wht
from .transform import _butterfly, _require_power_of_two, fwht
from .walsh import SampledFunction

_cache: dict[tuple[str, int], "OperationalMatrix"] = {}
_cache_lock = threading.Lock()


@dataclass(frozen=True)
class OperationalMatrix:
    """Immutable N x N Walsh-domain operator (integration or differentiation)."""

    entries: np.ndarray
    kind: str
    n: int


def time_integration_operator(N: int) -> np.ndarray:
    """Midpoint running-integration operator J (time domain, exact)."""
    _require_power_of_two(N)
    J = np.tril(np.full((N, N), 1.0 / N), k=-1)
    np.fill_diagonal(J, 1.0 / (2.0 * N))
    return J


def _conjugate_with_sign_table(core: np.ndarray) -> np.ndarray:
    """H_norm @ core @ H_norm, one column at a time via two butterflies.

    The 1/N normalization is applied once at the end so dyadic inputs
    stay exact through the additions.
    """
    N = core.shape[0]
    out = np.empty_like(core)
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        out[:, j] = _butterfly(core @ _butterfly(e))
    out /= N
    return out


def integration_matrix(N: int) -> OperationalMatrix:
    """Walsh-domain integration matrix I_N (cached per size)."""
    n = _require_power_of_two(N)
    key = ("integration", N)
    with _cache_lock:
        if key not in _cache:
            entries = _conjugate_with_sign_table(time_integration_operator(N))
            entries.flags.writeable = False
            _cache[key] = OperationalMatrix(entries, "integration", n)
        return _cache[key]


def differentiation_matrix(N: int) -> OperationalMatrix:
    """Walsh-domain differentiation matrix, the exact inverse of I_N."""
    n = _require_power_of_two(N)
    key = ("differentiation", N)
    with _cache_lock:
        if key not in _cache:
            # Forward substitution on M = 2N*J = I + 2L, column by column;
            # each column alternates 1, -2, +2, -2, ... so everything is
            # integer-exact.
            m_inv = np.zeros((N, N))
            for j in range(N):
                m_inv[j, j] = 1.0
                running = 1.0
                for i in range(j + 1, N):
                    m_inv[i, j] = -2.0 * running
                    running += m_inv[i, j]
            j_inv = (2.0 * N) * m_inv
            entries = _conjugate_with_sign_table(j_inv)
            entries.flags.writeable = False
            _cache[key] = OperationalMatrix(entries, "differentiation", n)
        return _cache[key]


def integrate_sampled(
    f: SampledFunction,
    backend: str = "classical",
    cfg: HybridConfig | None = None,
) -> SampledFunction:
    """Sampled antiderivative vanishing at the left domain endpoint.

    backend 'classical' uses the fast transform both ways; 'hybrid' uses the
    simulated quantum transform, seeded by children (0,) and (1,) of the seed.
    """
    matrix = integration_matrix(f.values.size).entries
    if backend == "classical":
        out = fwht(matrix @ fwht(f.values))
    elif backend == "hybrid":
        cfg = cfg or HybridConfig()
        spectrum, _ = hybrid_wht(f.values, cfg.child(0))
        out, _ = hybrid_wht(matrix @ spectrum, cfg.child(1))
    else:
        raise ValueError(f"unknown backend {backend!r}")
    lo, hi = f.domain
    return SampledFunction(out * (hi - lo), f.domain)
