"""Statevector preparation, Hadamard layer, measurement."""

import math

import numpy as np
import pytest

from walshode import (
    DEFAULT_SEED,
    apply_hadamard_all,
    fwht,
    measure_exact,
    measure_sampled,
    prepare_state,
)


def test_prepare_basis_state():
    s = prepare_state([1.0, 0.0, 0.0, 0.0])
    assert s.n == 2
    assert np.array_equal(s.amplitudes, [1, 0, 0, 0])


def test_prepare_uniform_state():
    s = prepare_state([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(s.amplitudes, 0.5, rtol=0, atol=0)


def test_prepare_normalized_input_passthrough():
    v = np.array([3.0, 1.0, -2.0, 0.5])
    s = prepare_state(v / np.linalg.norm(v))
    assert np.allclose(s.amplitudes, v / np.linalg.norm(v), rtol=0, atol=0)


def test_prepare_rejects_bad_norm_and_length():
    with pytest.raises(ValueError):
        prepare_state([1.0, 1.0])
    with pytest.raises(ValueError):
        prepare_state([1.0, 0.0, 0.0])


def test_prepare_rejects_input_that_is_not_one_vector():
    # Unit norm and a power-of-two size, but a 2x2 block, not a register.
    with pytest.raises(ValueError, match="state vector must form a 1-D vector"):
        prepare_state(np.full((2, 2), 0.5))


def test_hadamard_on_single_qubit_states():
    plus = apply_hadamard_all(prepare_state([1.0, 0.0]))
    assert np.allclose(plus.amplitudes, [1 / math.sqrt(2)] * 2, rtol=0, atol=1e-15)
    minus = apply_hadamard_all(prepare_state([0.0, 1.0]))
    assert np.allclose(
        minus.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)], rtol=0, atol=1e-15
    )


def test_hadamard_twice_is_identity():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(16)
    v /= np.linalg.norm(v)
    s = apply_hadamard_all(apply_hadamard_all(prepare_state(v)))
    assert np.max(np.abs(s.amplitudes - v)) < 1e-12


def test_hadamard_preserves_norm():
    rng = np.random.default_rng(11)
    for n in (1, 4, 8, 12):
        v = rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        s = apply_hadamard_all(prepare_state(v))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_hadamard_layer_matches_fast_transform():
    # Independent code paths: per-qubit sweeps vs stride-doubling butterfly.
    rng = np.random.default_rng(29)
    for n in range(1, 13):
        v = rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        s = apply_hadamard_all(prepare_state(v))
        assert np.max(np.abs(s.amplitudes - fwht(v))) < 1e-12


def test_measure_exact_probabilities():
    uniform = measure_exact(prepare_state([0.5, 0.5, 0.5, 0.5]))
    assert np.allclose(uniform.probabilities, 0.25, rtol=0, atol=1e-15)
    assert abs(uniform.probabilities.sum() - 1.0) < 1e-12

    signed = measure_exact(prepare_state([1 / math.sqrt(2), -1 / math.sqrt(2)]))
    assert np.allclose(signed.probabilities, [0.5, 0.5], rtol=0, atol=1e-15)

    basis = np.zeros(8)
    basis[3] = 1.0
    res = measure_exact(prepare_state(basis))
    assert res.probabilities[3] == 1.0
    assert res.probabilities.sum() == 1.0


def test_measure_sampled_deterministic_state():
    basis = np.zeros(4)
    basis[2] = 1.0
    res = measure_sampled(prepare_state(basis), shots=1000, seed=1)
    assert res.counts[2] == 1000
    assert res.counts.sum() == 1000


def test_measure_sampled_uniform_five_sigma():
    # Binomial(1e6, 1/2): 5 sigma = 2500, bound stated at 5000.
    s = prepare_state([1 / math.sqrt(2), 1 / math.sqrt(2)])
    res = measure_sampled(s, shots=10**6)
    assert res.seed == DEFAULT_SEED
    assert abs(res.counts[0] - 5 * 10**5) < 5 * 10**3
    assert abs(res.counts[1] - 5 * 10**5) < 5 * 10**3


def test_measure_sampled_seed_replay():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v)
    s = prepare_state(v)
    a = measure_sampled(s, shots=5000, seed=77)
    b = measure_sampled(s, shots=5000, seed=77)
    assert np.array_equal(a.counts, b.counts)


def test_measure_sampled_counts_sum_exactly_to_shots():
    rng = np.random.default_rng(41)
    v = rng.standard_normal(64)
    s = prepare_state(v / np.linalg.norm(v))
    for shots in (1, 7, 1000, 10**6 + 3):
        res = measure_sampled(s, shots, seed=shots)
        assert res.counts.shape == (64,)
        assert int(res.counts.sum()) == shots


def test_measure_sampled_huge_shot_budget_allocates_nothing_per_shot():
    # One stored draw per shot would need 16 TB here; counts cost O(N).
    rng = np.random.default_rng(43)
    v = rng.standard_normal(16)
    s = prepare_state(v / np.linalg.norm(v))
    res = measure_sampled(s, shots=10**12, seed=5)
    assert res.counts.dtype == np.int64
    assert int(res.counts.sum()) == 10**12
    # Frequency noise is at most sqrt(1/4 / 1e12) = 5e-7 per outcome.
    exact = measure_exact(s).probabilities
    assert np.max(np.abs(res.counts / 10**12 - exact)) < 1e-5


def test_measure_sampled_rejects_zero_shots():
    with pytest.raises(ValueError):
        measure_sampled(prepare_state([1.0, 0.0]), shots=0)


def test_measure_sampled_shot_budget_bounded_by_int64_counts():
    s = prepare_state([1.0, 0.0])
    assert measure_sampled(s, shots=2**63 - 1).counts[0] == 2**63 - 1
    with pytest.raises(ValueError):
        measure_sampled(s, shots=2**63)


def test_sampled_frequencies_converge_to_exact():
    rng = np.random.default_rng(31)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    s = prepare_state(v)
    exact = measure_exact(s).probabilities
    batch = range(DEFAULT_SEED, DEFAULT_SEED + 8)
    means = []
    for shots in (10**2, 10**4, 10**6):
        errs = [
            np.max(np.abs(measure_sampled(s, shots, seed).counts / shots - exact))
            for seed in batch
        ]
        means.append(np.mean(errs))
    assert means[0] > means[1] > means[2]
