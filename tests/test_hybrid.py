"""Sign-safe hybrid transform: shift identity, positivity, equivalence, counts."""

import math
import re
import sys

import numpy as np
import pytest

from walshode import (
    HybridConfig,
    OpCount,
    SolverConfig,
    classical_side_opcount,
    fwht,
    hybrid_wht,
    sign_safe,
)
from walshode.hybrid import backend_config
from walshode.quantum import measure_sampled, prepare_state

#: The seed of every sampled run below that pins no seed of its own.
SEED = 12345


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


@pytest.mark.parametrize("epsilon", [1e-200, 1e-160])
def test_squared_norm_below_normal_range_is_refused(epsilon):
    # shift^2 underflows to 0 (1e-200) or to a subnormal (1e-160); 1e-150
    # squares to a normal 1e-300 and still maps zero to zero.
    with pytest.raises(ValueError, match=r"squared norm underflows float64 \(shift 1e-(200|160)\)"):
        hybrid_wht(np.zeros(4), HybridConfig(epsilon=epsilon))
    out, _ = hybrid_wht(np.zeros(4), HybridConfig(epsilon=1e-150))
    assert not out.any()


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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError) as info:
            hybrid_wht([1.0, bad, 0.0, bad])
        assert str(info.value) == f"input vector must be finite, got {bad}"


def test_overflowing_shifted_norm_is_named():
    # The squared norm overflows though the norm (1.4e160) does not; shifted /
    # norm used to be all zeros and the error blamed the state vector's norm.
    # With 1e160 in a[1:] the square is named without a numpy overflow
    # warning, which the suite's filterwarnings = error turns into a failure.
    for v in ([1e160, 1.0, 0.0, 0.0], [1.0, 1e160, 0.0, 0.0]):
        count = OpCount()
        with pytest.raises(ValueError, match="shifted vector's squared norm overflows"):
            hybrid_wht(v, count=count)
        assert count.additions == count.multiplications == count.square_roots == 0


def test_rejects_input_that_is_not_one_vector():
    for fn in (hybrid_wht, sign_safe):
        with pytest.raises(ValueError, match="must form a 1-D vector"):
            fn(np.array([[4.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon must be strictly positive"):
        HybridConfig(epsilon=0.0)
    # True used to be taken as a margin of 1.0.
    message = "epsilon must be strictly positive and finite, got True"
    for build in (lambda: HybridConfig(epsilon=True), lambda: backend_config("hybrid-exact", True)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    with pytest.raises(ValueError, match=re.escape("shots must be in [1, 2^63), got 0")):
        HybridConfig(shots=0)


@pytest.mark.parametrize("shots", [1.5, True, 5.0])
def test_shot_count_must_be_an_integer(shots):
    message = re.escape(f"shots must be in [1, 2^63), got {shots}")
    with pytest.raises(ValueError, match=message):
        HybridConfig(shots=shots)
    with pytest.raises(ValueError, match=message):
        measure_sampled(prepare_state([1.0, 0.0]), shots, SEED)


def test_numpy_integer_shot_count_is_taken():
    cfg = HybridConfig(shots=np.int64(5), seed=SEED)
    assert cfg.shots == 5
    assert int(measure_sampled(prepare_state([0.6, 0.8]), cfg.shots, cfg.seed).sum()) == 5


@pytest.mark.parametrize("entry", [True, -1])
def test_spawn_key_entries_must_be_non_negative_integers(entry):
    message = f"spawn_key entry must be a non-negative integer, got {entry}"
    with pytest.raises(ValueError, match=message):
        HybridConfig(shots=1000, seed=SEED, spawn_key=(0, entry))
    with pytest.raises(ValueError, match=message):
        HybridConfig(shots=1000, seed=SEED).child(1, entry)


def test_spawn_key_must_be_a_tuple():
    # A list would neither extend by child nor hash as a frozen field.
    with pytest.raises(ValueError, match=re.escape("spawn_key must be a tuple of non-negative")):
        HybridConfig(shots=1000, seed=SEED, spawn_key=[0])


def test_numpy_integer_spawn_key_is_taken():
    v = np.random.default_rng(8).standard_normal(16)
    cfg = HybridConfig(shots=1000, seed=3)
    out, _ = hybrid_wht(v, cfg.child(np.int64(2), np.uint8(1)))
    assert np.array_equal(out, hybrid_wht(v, cfg.child(2, 1))[0])


@pytest.mark.parametrize("seed", [None, True, 1.5, -1])
def test_seed_must_be_a_non_negative_integer(seed):
    # None would draw OS entropy, so two runs of one config would differ.
    with pytest.raises(ValueError) as info:
        HybridConfig(shots=1000, seed=seed)
    assert str(info.value) == f"seed must be a non-negative integer, got {seed}"


def test_numpy_integer_seed_is_taken():
    v = np.array([0.5, -0.25, 1.0, 0.0])
    cfg = HybridConfig(shots=1000, seed=np.int64(7))
    assert np.array_equal(hybrid_wht(v, cfg)[0], hybrid_wht(v, HybridConfig(shots=1000, seed=7))[0])


def test_overflowing_absolute_sum_raises_only_the_value_error():
    # np.sum(np.abs(a)) is inf here; under filterwarnings = error numpy's
    # overflow warning would reach the caller instead of the ValueError.
    with pytest.raises(ValueError) as info:
        hybrid_wht(np.array([1e308, 1e308]))
    assert str(info.value) == "the shifted vector's squared norm overflows float64 (shift inf)"


@pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan])
def test_non_finite_epsilon_refused_when_the_config_is_built(epsilon):
    message = f"epsilon must be strictly positive and finite, got {epsilon}"
    for backend, shots in (("hybrid-exact", None), ("hybrid-sampled", 1000)):
        with pytest.raises(ValueError) as info:
            backend_config(backend, epsilon=epsilon, shots=shots)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            SolverConfig(n_max=1, backend=backend, epsilon=epsilon, shots=shots)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        HybridConfig(epsilon=epsilon)
    assert str(info.value) == message
    assert HybridConfig(epsilon=sys.float_info.max).epsilon == sys.float_info.max


def test_one_shot_bound_for_every_config():
    # The counts are int64, so 2^63 - 1 is the largest budget any config takes.
    builders = [
        lambda shots: HybridConfig(shots=shots, seed=SEED),
        lambda shots: backend_config("hybrid-sampled", shots=shots, seed=SEED),
        lambda shots: SolverConfig(n_max=1, backend="hybrid-sampled", shots=shots,
                                   seed=SEED).hybrid,
    ]
    for build in builders:
        with pytest.raises(ValueError) as info:
            build(2**63)
        assert str(info.value) == f"shots must be in [1, 2^63), got {2**63}"
        assert build(2**63 - 1).shots == 2**63 - 1
    out, _ = hybrid_wht([0.5, -0.25, 1.0, 0.0], HybridConfig(shots=2**63 - 1, seed=3))
    assert np.allclose(out, fwht([0.5, -0.25, 1.0, 0.0]), atol=1e-6)


def test_a_shot_count_makes_the_config_sampled():
    assert HybridConfig(epsilon=0.5, seed=7).mode == "exact"
    cfg = HybridConfig(shots=1000, seed=7)
    assert cfg.mode == "sampled"
    count = OpCount()
    _, trace = hybrid_wht(np.array([0.5, -0.25, 1.0, 0.0]), cfg, count)
    assert trace.sub_resolution is not None
    assert count.total == 8 * 4
    with pytest.raises(AttributeError):
        cfg.mode = "exact"


def test_backend_config_takes_each_setting_where_it_applies():
    assert backend_config("classical") is None
    assert backend_config("fast") is None
    assert backend_config("hybrid-exact", epsilon=0.5) == HybridConfig(epsilon=0.5)
    assert backend_config("hybrid-sampled", shots=10, seed=SEED) == HybridConfig(
        shots=10, seed=SEED)
    assert backend_config("hybrid-sampled", 0.5, 10, 3) == HybridConfig(0.5, 10, 3)
    with pytest.raises(ValueError, match="^backend hybrid-sampled requires a shot count$"):
        backend_config("hybrid-sampled", seed=3)
    for backend, name in [("classical", "epsilon"), ("naive", "shots"),
                          ("hybrid-exact", "seed"), ("hybrid-exact", "shots")]:
        with pytest.raises(ValueError, match=f"^{name} does not apply to backend {backend}$"):
            backend_config(backend, **{name: 1})


def test_sampled_mode_accuracy_and_monotonicity():
    v = np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    reference = fwht(v)
    big, trace = hybrid_wht(v, HybridConfig(shots=10**6, seed=SEED))
    assert np.max(np.abs(big - reference)) <= 5e-3 * trace.norm
    small, _ = hybrid_wht(v, HybridConfig(shots=10**2, seed=SEED))
    assert np.max(np.abs(small - reference)) > np.max(np.abs(big - reference))


def test_sampled_mode_seed_replay():
    v = np.array([0.5, -0.25, 1.0, 0.0])
    cfg = HybridConfig(shots=4096, seed=99)
    a, _ = hybrid_wht(v, cfg)
    b, _ = hybrid_wht(v, cfg)
    assert np.array_equal(a, b)


def test_sampled_mode_flags_sub_resolution_components():
    # Component 3 of the ramp transform is exactly 0: always below noise.
    v = np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    _, trace = hybrid_wht(v, HybridConfig(shots=10**4, seed=SEED))
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
        hybrid_wht(rng.standard_normal(N), HybridConfig(shots=1000, seed=SEED), count)
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
