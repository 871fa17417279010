"""Desk-scale statevector simulator for one circuit: H on every qubit.

A register of n qubits is its array of 2^n real amplitudes (the transforms in this
package act on real data, so no phase tracking is needed): every function takes it as an
array, read as float64, and refuses anything but a 1-D vector of power-of-two length; n is
read off the size.  ``prepare_state`` and the two measurements also refuse a non-finite
entry, and ``prepare_state`` requires unit norm.  The Hadamard layer fuses the H gates of
k <= _GROUP adjacent qubits into one 2^k x 2^k gate, one matrix product per group (gate
fusion, as in qsim), a deliberately different code path from the butterfly in
``transform`` so the two can cross-check each other.  ``measure_exact`` returns the
Born-rule probabilities, ``measure_sampled`` the int64 outcome counts, which come from one
multinomial draw: O(N) whatever the shots, from the stream of ``SeedSequence(seed,
spawn_key=spawn_key)``; the empty key is ``default_rng(seed)``'s.  There is no default
seed: a sampled run names its own, so two runs share noise only when they name the same
seed and key.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import _overflow_rule
from .walsh import _require_finite, _require_int, _require_vector

#: Qubits per fused gate; a group costs 2^k multiply-adds per amplitude.
_GROUP = 5

#: The largest shot count: the outcome counts are int64.
_MAX_SHOTS = 2**63 - 1


def _fused_gate(k: int) -> np.ndarray:
    """Read-only H^{(x)k}: k Kronecker factors [[1, 1], [1, -1]] times 2^(-k/2)."""
    gate = reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * k, np.array([[2.0 ** (-k / 2)]]))
    gate.flags.writeable = False
    return gate


#: _GATES[k] acts on k adjacent qubits; shared by every call, never written.
_GATES = tuple(_fused_gate(k) for k in range(_GROUP + 1))


def prepare_state(v) -> np.ndarray:
    """Amplitude-encode a real vector of unit norm (to 1e-9): a fresh float64 register.

    A squared norm past float64's range is inf, refused by that rule without a warning."""
    a = np.array(v, dtype=float)
    _require_vector(a, "state vector")
    with np.errstate(over="ignore", under="ignore"):
        norm = math.sqrt(a.dot(a))  # the dot product np.linalg.norm takes the root of
    if not abs(norm - 1.0) <= 1e-9:  # also True for nan
        _require_finite(a, "state vector")
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
    with _overflow_rule("apply_hadamard_all"):
        a = a.reshape(-1, 1 << k) @ _GATES[k]
        for q in range(k, n, _GROUP):
            k = min(_GROUP, n - q)
            a = _GATES[k] @ a.reshape(-1, 1 << k, 1 << q)
    return a.reshape(-1)


def measure_exact(state) -> np.ndarray:
    """Born-rule probabilities |amplitude|^2 as float64, without sampling noise; no nan or inf."""
    a = np.asarray(state, dtype=float)
    _require_vector(a, "state vector")
    _require_finite(a, "state vector")
    with _overflow_rule("measure_exact"):
        return a * a


def _require_key(spawn_key: tuple[int, ...]) -> None:
    """Refuse a spawn key other than a tuple of integers >= 0, each by the integer rule."""
    if not isinstance(spawn_key, tuple):
        raise ValueError(f"spawn_key must be a tuple of non-negative integers, got {spawn_key!r}")
    for entry in spawn_key:
        _require_int(entry, "spawn_key entry", 0)


def measure_sampled(state, shots: int, seed: int, spawn_key: tuple[int, ...] = ()) -> np.ndarray:
    """Int64 counts of ``shots`` shots (they sum to it) from stream ``spawn_key`` of ``seed``.

    By ``walsh``'s integer rule, shots lie in [1, 2^63 - 1] and the seed and key entries are >= 0.
    """
    _require_int(shots, "shots", 1, _MAX_SHOTS)
    _require_int(seed, "seed", 0)  # None would draw OS entropy
    _require_key(spawn_key)
    a = np.asarray(state, dtype=float)
    _require_vector(a, "state vector")
    with _overflow_rule("measure_sampled"):
        p = a * a
        total = float(np.add.reduce(p))
        if not 0.0 < total < np.inf:  # also True for nan
            _require_finite(a, "state vector")
            raise ValueError(f"squared amplitudes must sum to a positive number, got {total!r}")
        p /= total  # normalised so roundoff cannot trip numpy's sum(pvals[:-1]) <= 1 check
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    return rng.multinomial(shots, p)
