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
from walshode.quantum import apply_hadamard_all, measure_exact, measure_sampled, prepare_state

#: The seed of every sampled run below that pins no seed of its own.
SEED = 12345


def test_sign_safe_pinned_cases():
    assert sign_safe([10.0, 1.0, 1.0, 1.0])
    assert not sign_safe([1.0, 1.0, 0.0, 0.0])  # equality is not strict
    assert not sign_safe([0.0, 0.0, 0.0, 0.0])
    assert not sign_safe(np.full(16, 2.6e307))  # the sum passes every float, with no warning


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
    with pytest.raises(FloatingPointError,
                       match=r"squared norm underflows float64 \(shift 1e-(200|160)\)"):
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


def test_overflowing_shifted_norm_is_named():
    # The squared norm overflows though the norm (1.4e160) does not; shifted /
    # norm used to be all zeros and the error blamed the state vector's norm.
    # With 1e160 in a[1:] the square is named without a numpy overflow
    # warning, which the suite's filterwarnings = error turns into a failure.
    for v in ([1e160, 1.0, 0.0, 0.0], [1.0, 1e160, 0.0, 0.0]):
        count = OpCount()
        with pytest.raises(FloatingPointError, match="shifted vector's squared norm overflows"):
            hybrid_wht(v, count=count)
        assert count.additions == count.multiplications == count.square_roots == 0


def test_spawn_key_must_be_a_tuple():
    # A list would neither extend by child nor hash as a frozen field.
    with pytest.raises(ValueError, match=re.escape("spawn_key must be a tuple of non-negative")):
        HybridConfig(shots=1000, seed=SEED, spawn_key=[0])


def test_overflowing_absolute_sum_raises_only_the_floating_point_error():
    # np.sum(np.abs(a)) is inf here; under filterwarnings = error numpy's
    # overflow warning would reach the caller instead of the FloatingPointError.
    with pytest.raises(FloatingPointError) as info:
        hybrid_wht(np.array([1e308, 1e308]))
    assert str(info.value) == "the shifted vector's squared norm overflows float64 (shift inf)"


@pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan])
def test_non_finite_epsilon_refused_when_the_config_is_built(epsilon):
    message = f"epsilon must be > 0 and finite, got {epsilon}"
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
        assert str(info.value) == f"shots must be an integer in [1, {2**63 - 1}], got {2**63}"
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


@pytest.mark.parametrize("n", range(1, 11))
def test_hybrid_wht_is_its_documented_pipeline(n):
    # The module docstring's steps, each a public call, give the same bytes.
    N = 1 << n
    for seed, key in ((SEED, ()), (7, (2, 5))):
        v = np.random.default_rng([seed, n]).standard_normal(N)
        for epsilon in (None, 0.5):
            abs_sum = np.sum(np.abs(v))
            shift = (1e-3 * (1.0 + abs_sum) if epsilon is None else epsilon) + abs_sum
            norm = math.sqrt(shift * shift + np.sum(v[1:] ** 2))
            shifted = v / norm
            shifted[0] = shift / norm
            state = apply_hadamard_all(prepare_state(shifted))
            offset = (shift - v[0]) / math.sqrt(N)
            for shots in (None, 10**4):
                out, trace = hybrid_wht(v, HybridConfig(epsilon, shots, seed, key))
                p = (measure_exact(state) if shots is None
                     else measure_sampled(state, shots, seed, key) / shots)
                assert out.tobytes() == (norm * np.sqrt(p) - offset).tobytes()
                assert (trace.shift, trace.norm, trace.offset) == (shift, norm, offset)
                if shots is None:
                    assert trace.sub_resolution is None
                else:
                    flags = np.abs(out) < norm / math.sqrt(shots)
                    assert trace.sub_resolution.tobytes() == flags.tobytes()


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
    for n in range(1, 13):
        N = 1 << n
        count = classical_side_opcount(N)
        assert (count.additions, count.multiplications, count.square_roots) == (
            3 * N - 1, 3 * N, N + 1)
        assert count.total == 7 * N
        tally = OpCount()
        hybrid_wht(np.zeros(N), HybridConfig(), tally)
        assert tally == count
    # A closed form allocates nothing, so no size is refused for its bytes.
    assert classical_side_opcount(1 << 40).total == 7 << 40


def test_sampled_mode_counts_one_more_multiplication_per_component():
    # The extra N multiplications turn counts into frequencies.
    rng = np.random.default_rng(17)
    for N in (2, 8, 64):
        count = OpCount()
        hybrid_wht(rng.standard_normal(N), HybridConfig(shots=1000, seed=SEED), count)
        assert count.multiplications == 4 * N
        assert count.total == 8 * N


def test_addition_count_decomposition_for_n2():
    # N=2: shift accumulation contributes N=2 (one per magnitude summed,
    # one for the margin), the norm N-1=1, the final correction N=2.
    count = OpCount()
    hybrid_wht(np.array([1.0, -2.0]), HybridConfig(), count)
    assert count.additions == 2 + 1 + 2
    assert count.square_roots == 3
    assert count.multiplications == 6
