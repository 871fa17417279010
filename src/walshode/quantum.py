"""Desk-scale statevector simulator for one circuit: H on every qubit.

A register of n qubits is its array of 2^n real amplitudes (the
transforms in this package act on real data, so no phase tracking is
needed): every function takes it as an array, read as float64, and
refuses anything but a 1-D vector of power-of-two length; n is read off
the size.  ``prepare_state`` also requires unit norm.  The Hadamard layer
fuses the H gates of k <= _GROUP adjacent qubits into one 2^k x 2^k gate,
one matrix product per group (gate fusion, as in qsim), a deliberately
different code path from the butterfly in ``transform`` so the two can
cross-check each other.  ``measure_exact`` returns the Born-rule
probabilities, ``measure_sampled`` the int64 outcome counts, which come
from one multinomial draw: O(N) whatever the shots, from the stream of
``SeedSequence(seed, spawn_key=spawn_key)``; the empty key is ``default_rng(seed)``'s.
"""

from __future__ import annotations

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


def prepare_state(v) -> np.ndarray:
    """Load a unit-norm real vector into a register (amplitude encoding): a fresh float64 copy."""
    a = np.array(v, dtype=float)
    _require_vector(a, "state vector")
    norm = float(np.linalg.norm(a))
    if not abs(norm - 1.0) <= 1e-9:  # also True for nan
        raise ValueError(f"state vector must have unit norm, got {norm!r}")
    return a


def apply_hadamard_all(state) -> np.ndarray:
    """Apply one H gate per qubit; returns a new float64 register, norm preserved.

    Qubits [q, q+k) are the gate times the (N/2^(q+k), 2^k, 2^q) view, the lowest
    the (N/2^k, 2^k) view times the symmetric gate; no product aliases the input.
    """
    a = np.asarray(state, dtype=float)
    n = _require_vector(a, "state vector")
    k = min(n, _GROUP)
    a = a.reshape(-1, 1 << k) @ _GATES[k]
    for q in range(k, n, _GROUP):
        k = min(_GROUP, n - q)
        a = _GATES[k] @ a.reshape(-1, 1 << k, 1 << q)
    return a.reshape(-1)


def measure_exact(state) -> np.ndarray:
    """Born-rule probabilities |amplitude|^2 as float64, without sampling noise; no nan or inf."""
    a = np.asarray(state, dtype=float)
    _require_vector(a, "state vector")
    with np.errstate(over="ignore"):  # a square past the float range is inf, refused below
        p = a**2
    if not np.isfinite(p.max()):  # the largest square is nan or inf if any one is
        raise ValueError(f"squared amplitudes must be finite, got a largest of {float(p.max())}")
    return p


def require_shots(shots: int) -> None:
    """Refuse all but an integer (not a bool) in [1, 2^63): the outcome counts are int64."""
    if isinstance(shots, bool) or not hasattr(shots, "__index__") or not 1 <= shots < 2**63:
        raise ValueError(f"shots must be in [1, 2^63), got {shots}")


def require_seed(seed: int, spawn_key: tuple[int, ...] = ()) -> None:
    """Only non-negative integers as seed and tuple-key entries: no bool, no None (OS entropy)."""
    if not isinstance(spawn_key, tuple):
        raise ValueError(f"spawn_key must be a tuple of non-negative integers, got {spawn_key!r}")
    for name, value in (("seed", seed), *(("spawn_key entry", k) for k in spawn_key)):
        if isinstance(value, bool) or not hasattr(value, "__index__") or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value}")


def measure_sampled(state, shots: int, seed: int = DEFAULT_SEED,
                    spawn_key: tuple[int, ...] = ()) -> np.ndarray:
    """Int64 counts of ``shots`` shots (they sum to it) from stream ``spawn_key`` of ``seed``."""
    require_shots(shots)
    require_seed(seed, spawn_key)
    a = np.asarray(state, dtype=float)
    _require_vector(a, "state vector")
    with np.errstate(over="ignore"):  # an overflowing square or sum makes the total inf
        p = a**2
        total = float(p.sum())
    if not 0.0 < total < np.inf:  # also True for nan
        raise ValueError(f"squared amplitudes must sum to a positive finite number, got {total!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    # Normalised so roundoff cannot trip numpy's sum(pvals[:-1]) <= 1 check.
    return rng.multinomial(shots, p / total)
