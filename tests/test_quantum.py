"""Statevector preparation, Hadamard layer, measurement."""

import math

import numpy as np
import pytest

from walshode import (
    DEFAULT_SEED,
    apply_hadamard_all,
    character_table,
    fwht,
    measure_exact,
    measure_sampled,
    prepare_state,
)
from walshode.quantum import _GATES, _GROUP


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _per_qubit_hadamard(a):
    """Reference H layer: one sweep of 2x2 gates per qubit, in place on a float copy."""
    a = np.array(a, dtype=float)
    for q in range(a.size.bit_length() - 1):
        pairs = a.reshape(-1, 2, 1 << q)
        lo = (pairs[:, 0, :] + pairs[:, 1, :]) * _INV_SQRT2
        hi = (pairs[:, 0, :] - pairs[:, 1, :]) * _INV_SQRT2
        pairs[:, 0, :] = lo
        pairs[:, 1, :] = hi
    return a


def test_prepare_basis_state():
    s = prepare_state([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(s, [1, 0, 0, 0])


def test_prepare_uniform_state():
    s = prepare_state([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(s, 0.5, rtol=0, atol=0)


def test_prepare_normalized_input_passthrough():
    v = np.array([3.0, 1.0, -2.0, 0.5])
    s = prepare_state(v / np.linalg.norm(v))
    assert np.allclose(s, v / np.linalg.norm(v), rtol=0, atol=0)


def test_prepare_rejects_bad_norm_and_length():
    with pytest.raises(ValueError):
        prepare_state([1.0, 1.0])
    with pytest.raises(ValueError):
        prepare_state([1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prepare_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="unit norm"):
        prepare_state([bad, 0.0, 0.0, 0.0])


def test_prepare_rejects_input_that_is_not_one_vector():
    # Unit norm and a power-of-two size, but a 2x2 block, not a register.
    with pytest.raises(ValueError, match="state vector must form a 1-D vector"):
        prepare_state(np.full((2, 2), 0.5))


def test_state_qubit_count_is_derived_from_the_amplitudes():
    # A register is its amplitudes: H on all n qubits of the uniform state gives |0...0>.
    for n in (1, 3, 10):
        a = np.full(1 << n, 2.0 ** (-n / 2))
        out = apply_hadamard_all(a)
        assert out.shape == a.shape
        assert abs(out[0] - 1.0) < 1e-12 and np.max(np.abs(out[1:])) < 1e-12


def test_register_prepared_is_a_fresh_float64_copy():
    v = np.array([0.6, 0.8])
    s = prepare_state(v)
    assert s.dtype == np.float64 and not np.shares_memory(s, v)
    s[0] = 0.0
    assert v[0] == 0.6


@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (4, 1), ()])
def test_every_register_function_refuses_what_is_not_one_vector(shape):
    # A 2x2 block with a power-of-two size is not a 2-qubit register.
    a = np.full(shape, 0.5)
    for fn in (apply_hadamard_all, measure_exact, lambda s: measure_sampled(s, 10, 1)):
        with pytest.raises(ValueError, match="state vector must form a 1-D vector"):
            fn(a)


@pytest.mark.parametrize("size", [1, 3, 6])
def test_every_register_function_refuses_a_size_that_is_not_a_qubit_count(size):
    a = np.full(size, size**-0.5)
    for fn in (prepare_state, apply_hadamard_all, measure_exact,
               lambda s: measure_sampled(s, 10, 1)):
        with pytest.raises(ValueError, match="power of two >= 2"):
            fn(a)


def test_measure_exact_is_float64_on_integer_amplitudes():
    p = measure_exact(np.array([1, 0]))
    assert p.dtype == np.float64 and np.array_equal(p, [1.0, 0.0])


@pytest.mark.parametrize("amplitude, largest", [
    (1e200, "inf"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf"),
], ids=["square-overflows", "nan", "inf", "-inf"])
def test_measure_exact_refuses_squares_that_are_not_finite(amplitude, largest):
    # Refused by name, with no numpy warning (the suite turns warnings into errors).
    message = f"squared amplitudes must be finite, got a largest of {largest}"
    with pytest.raises(ValueError, match=message):
        measure_exact(np.array([amplitude, 0.0]))


def test_hadamard_on_single_qubit_states():
    plus = apply_hadamard_all(prepare_state([1.0, 0.0]))
    assert np.allclose(plus, [1 / math.sqrt(2)] * 2, rtol=0, atol=1e-15)
    # Integer amplitudes: float results written into an int copy gave [0, 0].
    plus = apply_hadamard_all(np.array([1, 0]))
    assert np.allclose(plus, [1 / math.sqrt(2)] * 2, rtol=0, atol=1e-15)
    minus = apply_hadamard_all(prepare_state([0.0, 1.0]))
    assert np.allclose(
        minus, [1 / math.sqrt(2), -1 / math.sqrt(2)], rtol=0, atol=1e-15
    )


def test_hadamard_twice_is_identity():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(16)
    v /= np.linalg.norm(v)
    s = apply_hadamard_all(apply_hadamard_all(prepare_state(v)))
    assert np.max(np.abs(s - v)) < 1e-12


def test_hadamard_preserves_norm():
    rng = np.random.default_rng(11)
    for n in (1, 4, 8, 12):
        v = rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        s = apply_hadamard_all(prepare_state(v))
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12


def test_fused_layer_matches_per_qubit_sweeps():
    # Groups of 5 from qubit 0: n = 5 and 10 end on a full group, 6 and 11 on one qubit.
    rng = np.random.default_rng(37)
    for n in range(1, 17):
        v = rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        s = apply_hadamard_all(v)
        assert np.max(np.abs(s - _per_qubit_hadamard(v))) < 1e-15, n


def test_fused_gates_are_read_only_kronecker_powers():
    assert _GROUP == len(_GATES) - 1 == 5
    assert np.array_equal(_GATES[0], [[1.0]])
    for k in range(1, _GROUP + 1):
        gate = _GATES[k]
        assert gate.shape == (1 << k, 1 << k) and not gate.flags.writeable
        assert np.array_equal(np.sign(gate), character_table(k))
        magnitude = np.abs(gate)
        assert np.all(magnitude == magnitude[0, 0])
        if k % 2 == 0:  # 2^(-k/2) is a power of two: every entry exact
            assert magnitude[0, 0] == math.ldexp(1.0, -k // 2)
        else:  # sqrt(2)/2^((k+1)/2), rounded once
            scaled = math.ldexp(magnitude[0, 0], (k + 1) // 2)
            assert math.isclose(scaled, math.sqrt(2.0), rel_tol=2**-52)


@pytest.mark.parametrize("dtype", [float, np.int64, np.int8])
def test_hadamard_layer_computes_in_float_and_never_aliases(dtype):
    for n in range(1, 8):
        a = np.zeros(1 << n, dtype=dtype)
        a[-1] = 1
        before = a.copy()
        out = apply_hadamard_all(a)
        assert out.dtype == np.float64 and out.shape == a.shape
        assert not np.shares_memory(out, a)
        assert np.array_equal(a, before)
        assert np.max(np.abs(out - _per_qubit_hadamard(a))) < 1e-15


def test_hadamard_layer_matches_fast_transform():
    # Independent code paths: fused gate products vs constant-geometry butterfly.
    rng = np.random.default_rng(29)
    for n in range(1, 13):
        v = rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        s = apply_hadamard_all(prepare_state(v))
        assert np.max(np.abs(s - fwht(v))) < 1e-12


def test_measure_exact_probabilities():
    uniform = measure_exact(prepare_state([0.5, 0.5, 0.5, 0.5]))
    assert np.allclose(uniform, 0.25, rtol=0, atol=1e-15)
    assert abs(uniform.sum() - 1.0) < 1e-12

    signed = measure_exact(prepare_state([1 / math.sqrt(2), -1 / math.sqrt(2)]))
    assert np.allclose(signed, [0.5, 0.5], rtol=0, atol=1e-15)

    basis = np.zeros(8)
    basis[3] = 1.0
    res = measure_exact(prepare_state(basis))
    assert res[3] == 1.0
    assert res.sum() == 1.0


def test_measure_sampled_deterministic_state():
    basis = np.zeros(4)
    basis[2] = 1.0
    res = measure_sampled(prepare_state(basis), shots=1000, seed=1)
    assert res[2] == 1000
    assert res.sum() == 1000


def test_measure_sampled_uniform_five_sigma():
    # Binomial(1e6, 1/2): 5 sigma = 2500, bound stated at 5000.
    s = prepare_state([1 / math.sqrt(2), 1 / math.sqrt(2)])
    res = measure_sampled(s, shots=10**6)
    assert np.array_equal(res, measure_sampled(s, shots=10**6, seed=DEFAULT_SEED))
    assert abs(res[0] - 5 * 10**5) < 5 * 10**3
    assert abs(res[1] - 5 * 10**5) < 5 * 10**3


def test_measure_sampled_seed_replay():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v)
    s = prepare_state(v)
    a = measure_sampled(s, shots=5000, seed=77)
    b = measure_sampled(s, shots=5000, seed=77)
    assert np.array_equal(a, b)


def test_measure_sampled_counts_sum_exactly_to_shots():
    rng = np.random.default_rng(41)
    v = rng.standard_normal(64)
    s = prepare_state(v / np.linalg.norm(v))
    for shots in (1, 7, 1000, 10**6 + 3):
        res = measure_sampled(s, shots, seed=shots)
        assert res.shape == (64,)
        assert int(res.sum()) == shots


def test_measure_sampled_huge_shot_budget_allocates_nothing_per_shot():
    # One stored draw per shot would need 16 TB here; counts cost O(N).
    rng = np.random.default_rng(43)
    v = rng.standard_normal(16)
    s = prepare_state(v / np.linalg.norm(v))
    res = measure_sampled(s, shots=10**12, seed=5)
    assert res.dtype == np.int64
    assert int(res.sum()) == 10**12
    # Frequency noise is at most sqrt(1/4 / 1e12) = 5e-7 per outcome.
    exact = measure_exact(s)
    assert np.max(np.abs(res / 10**12 - exact)) < 1e-5


def test_measure_sampled_rejects_zero_shots():
    with pytest.raises(ValueError):
        measure_sampled(prepare_state([1.0, 0.0]), shots=0)


def test_measure_sampled_shot_budget_bounded_by_int64_counts():
    s = prepare_state([1.0, 0.0])
    assert measure_sampled(s, shots=2**63 - 1)[0] == 2**63 - 1
    with pytest.raises(ValueError):
        measure_sampled(s, shots=2**63)


@pytest.mark.parametrize("amplitudes", [
    [0.0, 0.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0],
    [-np.inf, 0.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0],
], ids=["zeros", "nan", "inf", "-inf", "square-overflows"])
def test_measure_sampled_refuses_amplitudes_without_a_positive_finite_total(amplitudes):
    # Refused by name, with no numpy warning (the suite turns warnings into errors).
    with pytest.raises(ValueError, match="squared amplitudes must sum to a positive finite number"):
        measure_sampled(np.array(amplitudes), 10, 1)


@pytest.mark.parametrize("seed", [None, -1, True, 1.5])
def test_measure_sampled_refuses_a_seed_that_does_not_replay(seed):
    # None would draw fresh OS entropy on every call.
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        measure_sampled(prepare_state([0.6, 0.8]), 1000, seed)


def test_measure_sampled_takes_a_numpy_integer_seed():
    s = prepare_state([0.6, 0.8])
    assert np.array_equal(measure_sampled(s, 1000, np.int64(7)), measure_sampled(s, 1000, 7))


def test_unkeyed_measure_sampled_is_the_default_rng_stream():
    v = np.random.default_rng(4).standard_normal(8)
    s = prepare_state(v / np.linalg.norm(v))
    p = s**2
    expected = np.random.default_rng(7).multinomial(10**6, p / p.sum())
    assert np.array_equal(measure_sampled(s, 10**6, 7), expected)
    assert np.array_equal(measure_sampled(s, 10**6, 7, ()), expected)


def test_keyed_measure_sampled_draws_the_spawned_stream():
    v = np.random.default_rng(4).standard_normal(8)
    s = prepare_state(v / np.linalg.norm(v))
    p = s**2
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(2, 0, 1)))
    keyed = measure_sampled(s, 10**6, 7, (2, 0, 1))
    assert np.array_equal(keyed, rng.multinomial(10**6, p / p.sum()))
    assert not np.array_equal(keyed, measure_sampled(s, 10**6, 7))
    assert np.array_equal(measure_sampled(s, 10**6, 7, (np.int64(2), 0, np.uint16(1))), keyed)


@pytest.mark.parametrize("entry", [True, -1])
def test_measure_sampled_refuses_a_spawn_key_entry_that_does_not_replay(entry):
    message = f"spawn_key entry must be a non-negative integer, got {entry}"
    with pytest.raises(ValueError, match=message):
        measure_sampled(prepare_state([0.6, 0.8]), 1000, 7, (1, entry))


def test_sampled_frequencies_converge_to_exact():
    rng = np.random.default_rng(31)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    s = prepare_state(v)
    exact = measure_exact(s)
    batch = range(DEFAULT_SEED, DEFAULT_SEED + 8)
    means = []
    for shots in (10**2, 10**4, 10**6):
        errs = [
            np.max(np.abs(measure_sampled(s, shots, seed) / shots - exact))
            for seed in batch
        ]
        means.append(np.mean(errs))
    assert means[0] > means[1] > means[2]
