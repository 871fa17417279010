"""Desk-scale statevector simulator for one circuit: H on every qubit.

Amplitudes are real (the transforms in this package act on real data),
so no phase tracking is needed.  The Hadamard layer fuses the H gates of
k <= _GROUP adjacent qubits into one 2^k x 2^k gate, one matrix product
per group (gate fusion, as in qsim), a deliberately different code path
from the butterfly in ``transform`` so the two can cross-check each other.
The measurements return plain arrays: ``measure_exact`` the Born-rule
probabilities, ``measure_sampled`` the int64 outcome counts, which come
from one multinomial draw: O(N) whatever the shots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .walsh import _require_vector

#: Seed used when callers do not supply one; fixed so runs are replayable.
DEFAULT_SEED = 12345

#: Qubits per fused gate; a group costs 2^k multiply-adds per amplitude.
_GROUP = 5


def _fused_gate(k: int) -> np.ndarray:
    """Read-only H^{(x)k}: k Kronecker factors [[1, 1], [1, -1]] times 2^(-k/2)."""
    gate = reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * k, np.array([[2.0 ** (-k / 2)]]))
    gate.flags.writeable = False
    return gate


#: _GATES[k] acts on k adjacent qubits; shared by every call, never written.
_GATES = tuple(_fused_gate(k) for k in range(_GROUP + 1))


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
    """Apply one H gate per qubit; returns a new float64 state, norm preserved.

    Qubits [q, q+k) are the gate times the (N/2^(q+k), 2^k, 2^q) view, the lowest
    the (N/2^k, 2^k) view times the symmetric gate; no product aliases the input.
    """
    n = state.n
    k = min(n, _GROUP)
    a = np.asarray(state.amplitudes, dtype=float).reshape(-1, 1 << k) @ _GATES[k]
    for q in range(k, n, _GROUP):
        k = min(_GROUP, n - q)
        a = _GATES[k] @ a.reshape(-1, 1 << k, 1 << q)
    return StateVector(a.reshape(-1))


def measure_exact(state: StateVector) -> np.ndarray:
    """Born-rule probabilities |amplitude|^2 without sampling noise."""
    return state.amplitudes**2


def require_shots(shots: int) -> None:
    """Refuse all but an integer (not a bool) in [1, 2^63): the outcome counts are int64."""
    if isinstance(shots, bool) or not hasattr(shots, "__index__") or not 1 <= shots < 2**63:
        raise ValueError(f"shots must be in [1, 2^63), got {shots}")


def require_seed(seed: int) -> None:
    """Refuse all but a non-negative integer (not a bool): None would draw fresh OS entropy."""
    if isinstance(seed, bool) or not hasattr(seed, "__index__") or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def measure_sampled(state: StateVector, shots: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Int64 outcome counts of ``shots`` shots drawn with ``seed``; they sum to ``shots``."""
    require_shots(shots)
    require_seed(seed)
    p = state.amplitudes**2
    # Normalised so roundoff cannot trip numpy's sum(pvals[:-1]) <= 1 check.
    return np.random.default_rng(seed).multinomial(shots, p / p.sum())
