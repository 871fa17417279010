"""Desk-scale statevector simulator for one circuit: H on every qubit.

Amplitudes are real (the transforms in this package act on real data),
so no phase tracking is needed.  The Hadamard layer is implemented as n
single-qubit sweeps, a deliberately different code path from the
butterfly in ``transform`` so the two can cross-check each other.
The measurements return plain arrays: ``measure_exact`` the Born-rule
probabilities, ``measure_sampled`` the int64 outcome counts, which come
from one multinomial draw: O(N) whatever the shots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walsh import _require_vector

#: Seed used when callers do not supply one; fixed so runs are replayable.
DEFAULT_SEED = 12345

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class StateVector:
    """2^n real amplitudes with unit Euclidean norm; n is read off their size."""

    amplitudes: np.ndarray

    @property
    def n(self) -> int:
        return self.amplitudes.size.bit_length() - 1


def prepare_state(v) -> StateVector:
    """Load a unit-norm real vector into a register (amplitude encoding)."""
    a = np.array(v, dtype=float)
    _require_vector(a, "state vector")
    norm = float(np.linalg.norm(a))
    if not abs(norm - 1.0) <= 1e-9:  # also True for nan
        raise ValueError(f"state vector must have unit norm, got {norm!r}")
    return StateVector(a)


def apply_hadamard_all(state: StateVector) -> StateVector:
    """Apply one H gate per qubit; returns a new state, norm preserved."""
    a = state.amplitudes.copy()
    for q in range(state.n):
        pairs = a.reshape(-1, 2, 1 << q)
        lo = (pairs[:, 0, :] + pairs[:, 1, :]) * _INV_SQRT2
        hi = (pairs[:, 0, :] - pairs[:, 1, :]) * _INV_SQRT2
        pairs[:, 0, :] = lo
        pairs[:, 1, :] = hi
    return StateVector(a.reshape(-1))


def measure_exact(state: StateVector) -> np.ndarray:
    """Born-rule probabilities |amplitude|^2 without sampling noise."""
    return state.amplitudes**2


def measure_sampled(state: StateVector, shots: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Int64 outcome counts of ``shots`` shots drawn with ``seed``; they sum to ``shots``."""
    if not 1 <= shots < 2**63:  # the counts are int64
        raise ValueError(f"shots must be in [1, 2^63), got {shots}")
    p = state.amplitudes**2
    # Normalised so roundoff cannot trip numpy's sum(pvals[:-1]) <= 1 check.
    return np.random.default_rng(seed).multinomial(shots, p / p.sum())
