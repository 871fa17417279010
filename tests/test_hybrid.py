"""Sign-safe hybrid transform: shift identity, positivity, equivalence, counts."""

import math

import numpy as np
import pytest

from walshode import (
    HybridConfig,
    OpCount,
    classical_side_opcount,
    fwht,
    hybrid_wht,
    sign_safe,
)


def test_sign_safe_pinned_cases():
    assert sign_safe([10.0, 1.0, 1.0, 1.0])
    assert not sign_safe([1.0, 1.0, 0.0, 0.0])  # equality is not strict
    assert not sign_safe([0.0, 0.0, 0.0, 0.0])


def test_sign_safe_implies_all_positive_transform():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = rng.integers(1, 7)
        v = rng.standard_normal(1 << n)
        v[0] = np.sum(np.abs(v[1:])) + rng.uniform(0.01, 2.0)
        assert sign_safe(v)
        assert np.all(fwht(v) > 0.0)


def test_shifted_vector_is_always_sign_safe():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        n = rng.integers(1, 7)
        v = rng.standard_normal(1 << n) * rng.uniform(0.0, 10.0)
        epsilon = rng.uniform(1e-9, 5.0)
        shifted = v.copy()
        shifted[0] = epsilon + np.sum(np.abs(v))
        assert sign_safe(shifted)
        assert np.all(fwht(shifted) > 0.0)


def test_shift_identity():
    # Changing only the first component moves every transform component by
    # the same (b - v0)/sqrt(N).
    rng = np.random.default_rng(404)
    for n in range(1, 9):
        N = 1 << n
        v = rng.standard_normal(N)
        shifted = v.copy()
        shifted[0] = 3.0 + np.sum(np.abs(v))
        delta = (shifted[0] - v[0]) / math.sqrt(N)
        assert np.max(np.abs(fwht(shifted) - (fwht(v) + delta))) < 1e-12


def test_zero_vector_maps_to_zero():
    for epsilon in (1e-6, 1e-3, 1.0, None):
        out, trace = hybrid_wht(np.zeros(4), HybridConfig(epsilon=epsilon))
        assert np.max(np.abs(out)) < 1e-12
        assert trace.shift > 0.0


def test_ramp_vector_exact_mode():
    out, _ = hybrid_wht([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert np.max(np.abs(out - 0.5 * np.array([2, -0.5, -1, 0]))) < 1e-12


def test_random_n16_matches_oracle():
    rng = np.random.default_rng(16)
    v = rng.standard_normal(16)
    out, _ = hybrid_wht(v)
    assert np.max(np.abs(out - fwht(v))) < 1e-12


def test_exact_mode_equivalence_across_sizes_and_epsilons():
    rng = np.random.default_rng(505)
    for n in range(1, 11):
        for _ in range(5):
            v = rng.standard_normal(1 << n)
            reference = fwht(v)
            for epsilon in (1e-6, 1e-3, 1.0):
                out, _ = hybrid_wht(v, HybridConfig(epsilon=epsilon))
                assert np.max(np.abs(out - reference)) < 1e-12


def test_epsilon_independence_in_exact_mode():
    rng = np.random.default_rng(606)
    v = rng.standard_normal(32)
    outs = [hybrid_wht(v, HybridConfig(epsilon=e))[0] for e in (1e-6, 1e-3, 1.0)]
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-10
    assert np.max(np.abs(outs[1] - outs[2])) < 1e-10


def test_trace_fields_are_consistent():
    v = np.array([0.3, -1.2, 0.7, 2.0])
    cfg = HybridConfig(epsilon=0.25)
    out, trace = hybrid_wht(v, cfg)
    assert trace.shift == 0.25 + np.sum(np.abs(v))
    assert abs(trace.norm**2 - (trace.shift**2 + np.sum(v[1:] ** 2))) < 1e-12
    assert abs(trace.offset - (trace.shift - v[0]) / 2.0) < 1e-12
    assert abs(trace.probabilities.sum() - 1.0) < 1e-12
    assert np.array_equal(trace.output, out)
    assert trace.sub_resolution is None


def test_rejects_non_finite_input():
    with pytest.raises(ValueError):
        hybrid_wht([1.0, float("inf"), 0.0, 0.0])


def test_rejects_input_that_is_not_one_vector():
    for fn in (hybrid_wht, sign_safe):
        with pytest.raises(ValueError, match="must form a 1-D vector"):
            fn(np.array([[4.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))


def test_config_validation():
    with pytest.raises(ValueError):
        HybridConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        HybridConfig(mode="sampled")  # shots missing
    with pytest.raises(ValueError):
        HybridConfig(mode="sampled", shots=0)
    with pytest.raises(ValueError):
        HybridConfig(mode="fuzzy")


def test_sampled_mode_accuracy_and_monotonicity():
    v = np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    reference = fwht(v)
    big, trace = hybrid_wht(v, HybridConfig(mode="sampled", shots=10**6))
    assert np.max(np.abs(big - reference)) <= 5e-3 * trace.norm
    small, _ = hybrid_wht(v, HybridConfig(mode="sampled", shots=10**2))
    assert np.max(np.abs(small - reference)) > np.max(np.abs(big - reference))


def test_sampled_mode_seed_replay():
    v = np.array([0.5, -0.25, 1.0, 0.0])
    cfg = HybridConfig(mode="sampled", shots=4096, seed=99)
    a, _ = hybrid_wht(v, cfg)
    b, _ = hybrid_wht(v, cfg)
    assert np.array_equal(a, b)


def test_sampled_mode_flags_sub_resolution_components():
    # Component 3 of the ramp transform is exactly 0: always below noise.
    v = np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    _, trace = hybrid_wht(v, HybridConfig(mode="sampled", shots=10**4))
    assert trace.sub_resolution is not None
    assert bool(trace.sub_resolution[3])


def test_classical_side_opcount_formulas():
    for N in (2, 4, 8, 64, 1024):
        count = classical_side_opcount(N)
        assert count.square_roots == N + 1
        assert count.additions == 3 * N - 1
        assert count.multiplications == 3 * N
        assert count.total == 7 * N


def test_sampled_mode_counts_one_more_multiplication_per_component():
    # The extra N multiplications turn counts into frequencies.
    rng = np.random.default_rng(17)
    for N in (2, 8, 64):
        count = OpCount()
        hybrid_wht(rng.standard_normal(N), HybridConfig(mode="sampled", shots=1000), count)
        assert count.multiplications == 4 * N
        assert count.total == 8 * N


def test_classical_side_opcount_doubling_ratio_exact():
    for N in (4, 64, 1024):
        assert classical_side_opcount(2 * N).total * 1.0 == 2.0 * classical_side_opcount(N).total


def test_addition_count_decomposition_for_n2():
    # N=2: shift accumulation contributes N=2 (one per magnitude summed,
    # one for the margin), the norm N-1=1, the final correction N=2.
    count = OpCount()
    hybrid_wht(np.array([1.0, -2.0]), HybridConfig(), count)
    assert count.additions == 2 + 1 + 2
    assert count.square_roots == 3
    assert count.multiplications == 6
