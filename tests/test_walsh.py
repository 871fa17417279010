"""Character table, orderings and sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from walshode import errors, hybrid, walsh
from walshode import (
    ResourceLimitError,
    SampledFunction,
    WalshOrdering,
    character_eval,
    character_table,
    classical_side_opcount,
    discretize,
    fwht,
    ordering_permutation,
    reconstruct,
    sequency_walsh_recursive,
    walsh_value,
)

NAT = WalshOrdering.NATURAL
SEQ = WalshOrdering.SEQUENCY


def sign_changes(row):
    return int(np.sum(row[1:] != row[:-1]))


# ---------------------------------------------------------------------------
# character_eval / character_table


def test_character_eval_pinned_values():
    assert character_eval(1, 1, 1) == -1
    assert character_eval(3, 3, 2) == 1
    for x in range(8):
        assert character_eval(0, x, 3) == 1


def test_character_table_n1_n2():
    assert character_table(1).dtype == np.int8
    assert np.array_equal(character_table(1), [[1, 1], [1, -1]])
    expected = np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
    )
    assert np.array_equal(character_table(2), expected)


def test_character_table_row0_all_ones():
    assert np.all(character_table(3)[0] == 1)


def test_character_table_is_kronecker_power():
    base = np.array([[1, 1], [1, -1]])
    for n in range(1, 7):
        expected = np.array([[1]])
        for _ in range(n):
            expected = np.kron(expected, base)
        assert np.array_equal(character_table(n), expected)


def test_character_table_matches_lazy_eval():
    for n in (1, 2, 3):
        table = character_table(n)
        N = 1 << n
        for k in range(N):
            for x in range(N):
                assert table[k, x] == character_eval(k, x, n)


def test_character_table_resource_cap():
    for n in (14, 21):
        with pytest.raises(ResourceLimitError, match=f"character table for n={n}"):
            character_table(n)
    with pytest.raises(ValueError, match=r"qubit count must be an integer in \[1, 62\], got 63"):
        character_table(63)


@pytest.mark.parametrize("call, prefix", [
    (lambda i: character_eval(i, 0, 2), "character index k must be an integer"),
    (lambda i: character_eval(0, i, 2), "group element x must be an integer"),
    (lambda i: walsh_value(i, 0.3, 2), "function index k must be an integer"),
    (lambda i: walsh_value(i, 0.3, 2, SEQ), "function index k must be an integer"),
    (lambda i: sequency_walsh_recursive(i, 0.3), "function index must be an integer >= 0"),
], ids=["character_eval-k", "character_eval-x", "walsh_value", "walsh_value-sequency",
        "sequency_walsh_recursive"])
@pytest.mark.parametrize("index", [1.5, 1.0, True, None])
def test_index_must_be_an_integer(call, prefix, index):
    with pytest.raises(ValueError) as info:
        call(index)
    assert str(info.value) == f"{prefix}, got {index!r}"


def _traced(monkeypatch, module, call):
    """call()'s result, tracemalloc peak and the byte counts it charged to module.require_bytes."""
    charged = []
    real = module.require_bytes

    def record(nbytes, what):
        charged.append(nbytes)
        real(nbytes, what)

    monkeypatch.setattr(module, "require_bytes", record)
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, charged


@pytest.mark.parametrize("n", [8, 10, 11])
def test_character_table_peak_within_its_byte_charge(monkeypatch, n):
    table, peak, charged = _traced(monkeypatch, walsh, lambda: character_table(n))
    assert table.dtype == np.int8
    # The charge counts array data; tracemalloc also sees the few ndarray
    # objects themselves, about 100 bytes each.
    assert len(charged) == 1
    assert peak <= charged[0] + 1024


#: Entry points that size their arrays from a qubit count: (module that charges, call of n).
SIZED = {
    "ordering_permutation": (walsh, lambda n: ordering_permutation(n, SEQ, NAT)),
    "discretize": (walsh, lambda n: discretize(np.cos, n)),
    "classical_side_opcount": (hybrid, lambda n: classical_side_opcount(1 << n)),
}


@pytest.mark.parametrize("name", SIZED)
def test_sized_entry_points_are_refused_before_allocating(monkeypatch, name):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the byte cap was checked")

    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", 1024)
    monkeypatch.setattr(np, "arange", allocate)
    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(ResourceLimitError, match=f"needs {56 * 1024} bytes, over the cap of 1024$"):
        SIZED[name][1](10)


@pytest.mark.parametrize("n", [8, 10, 11])
@pytest.mark.parametrize("name", SIZED)
def test_sized_entry_points_peak_within_their_byte_charge(monkeypatch, name, n):
    module, call = SIZED[name]
    call(n)  # numpy's first-call caches are not the call's arrays
    _, peak, charged = _traced(monkeypatch, module, lambda: call(n))
    assert len(charged) == 1
    assert peak <= charged[0] + 1024  # as for the character table


def test_orthogonality_exact_integer_sums():
    for n in range(1, 7):
        table = character_table(n).astype(np.int64)
        N = 1 << n
        gram = table @ table.T
        assert np.array_equal(gram, N * np.eye(N, dtype=np.int64))


def test_closure_under_pointwise_product():
    for n in range(1, 6):
        table = character_table(n).astype(np.int64)
        N = 1 << n
        for i in range(N):
            for j in range(N):
                assert np.array_equal(table[i] * table[j], table[i ^ j])


# ---------------------------------------------------------------------------
# orderings


def test_ordering_permutation_identity_cases():
    assert np.array_equal(ordering_permutation(1, NAT, SEQ), [0, 1])
    assert np.array_equal(ordering_permutation(3, NAT, NAT), np.arange(8))


def test_ordering_permutation_n2_by_sign_changes():
    # Natural rows of the 4x4 table have 0,3,1,2 sign changes; sorting by
    # count gives the gather order [0, 2, 3, 1].
    assert np.array_equal(ordering_permutation(2, NAT, SEQ), [0, 2, 3, 1])


def test_sequency_rows_have_k_sign_changes():
    for n in range(1, 7):
        table = character_table(n)
        perm = ordering_permutation(n, NAT, SEQ)
        for k, row in enumerate(table[perm]):
            assert sign_changes(row) == k


def test_roundtrip_is_identity():
    for n in range(1, 7):
        fwd = ordering_permutation(n, NAT, SEQ)
        back = ordering_permutation(n, SEQ, NAT)
        assert np.array_equal(fwd[back], np.arange(1 << n))
        assert np.array_equal(back[fwd], np.arange(1 << n))


def test_permutation_matches_recursive_oracle():
    # Brute-force row matching: the permuted table must equal the recursive
    # definition at every midpoint, for every function.
    for n in range(1, 7):
        N = 1 << n
        mids = (2.0 * np.arange(N) + 1.0) / (2.0 * N)
        table = character_table(n)
        perm = ordering_permutation(n, NAT, SEQ)
        for k in range(N):
            expected = [sequency_walsh_recursive(k, x) for x in mids]
            assert np.array_equal(table[perm[k]], expected), (n, k)


# ---------------------------------------------------------------------------
# recursive oracle


def test_recursive_oracle_pinned_values():
    assert sequency_walsh_recursive(0, 0.5) == 1
    assert sequency_walsh_recursive(1, 0.75) == -1
    # Unrolled by hand: W6(0.1) = W3(0.2) = W1(0.4) + W1(-0.6) = 1.
    assert sequency_walsh_recursive(6, 0.1) == 1


def test_recursive_oracle_outside_unit_interval():
    assert sequency_walsh_recursive(3, -0.25) == 0
    assert sequency_walsh_recursive(3, 1.25) == 0


def test_ordering_permutation_refuses_names_for_orderings():
    # Only WalshOrdering members name an ordering; their string values do not.
    with pytest.raises(ValueError) as info:
        ordering_permutation(2, "natural", "sequency")
    assert str(info.value) == "ordering must be a WalshOrdering, got 'natural'"
    with pytest.raises(ValueError) as info:
        ordering_permutation(2, NAT, "sequency")
    assert str(info.value) == "ordering must be a WalshOrdering, got 'sequency'"


@pytest.mark.parametrize("ordering", ["sequency", "natural", None])
def test_walsh_value_refuses_names_for_orderings(ordering):
    with pytest.raises(ValueError) as info:
        walsh_value(1, 0.3, 2, ordering)
    assert str(info.value) == f"ordering must be a WalshOrdering, got {ordering!r}"


def test_sequency_symmetry_about_half():
    # Even sequency index: symmetric about 1/2; odd: antisymmetric.
    for n in range(1, 7):
        N = 1 << n
        mids = (2.0 * np.arange(N) + 1.0) / (2.0 * N)
        for k in range(N):
            vals = np.array([sequency_walsh_recursive(k, x) for x in mids])
            mirrored = vals[::-1]
            if k % 2 == 0:
                assert np.array_equal(vals, mirrored)
            else:
                assert np.array_equal(vals, -mirrored)


# ---------------------------------------------------------------------------
# walsh_value


def test_walsh_value_pinned():
    assert walsh_value(0, 0.3, 2) == 1
    assert walsh_value(2, 0.6, 2) == -1
    # Sequency index 5 at t=0.9 equals the recursive oracle there (-1).
    assert sequency_walsh_recursive(5, 0.9) == -1
    assert walsh_value(5, 0.9, 3, SEQ) == -1


def test_walsh_value_outside_interval_is_zero():
    assert walsh_value(1, -0.1, 2) == 0
    assert walsh_value(1, 1.1, 2) == 0
    assert walsh_value(1, float("inf"), 2) == 0
    assert walsh_value(1, float("-inf"), 2) == 0


def test_walsh_value_endpoint_uses_last_cell():
    for n in (1, 2, 3):
        N = 1 << n
        for k in range(N):
            assert walsh_value(k, 1.0, n) == character_eval(k, N - 1, n)


def test_walsh_value_agrees_with_recursive_oracle_at_midpoints():
    for n in range(1, 7):
        N = 1 << n
        mids = (2.0 * np.arange(N) + 1.0) / (2.0 * N)
        for k in range(N):
            for x in mids:
                assert walsh_value(k, x, n, SEQ) == sequency_walsh_recursive(k, x)


# ---------------------------------------------------------------------------
# discretize / reconstruct


def test_discretize_cos_pi_t():
    sf = discretize(lambda t: math.cos(math.pi * t), 2)
    expected = [
        math.cos(math.pi / 8),
        math.cos(3 * math.pi / 8),
        math.cos(5 * math.pi / 8),
        math.cos(7 * math.pi / 8),
    ]
    assert np.allclose(sf.values, expected, rtol=0, atol=0)


def test_discretize_identity_map():
    sf = discretize(lambda t: t, 2)
    assert np.array_equal(sf.values, [1 / 8, 3 / 8, 5 / 8, 7 / 8])


def test_discretize_zero():
    sf = discretize(lambda t: 0.0, 3)
    assert np.all(sf.values == 0.0)


def test_discretize_rejects_non_finite():
    with pytest.raises(ValueError):
        discretize(lambda t: float("nan"), 2)


@pytest.mark.parametrize("domain", [(0.0, math.inf), (math.nan, 1.0), (1.0, 0.0)])
def test_discretize_checks_the_domain_before_the_first_sample(domain):
    # (0, inf) used to call f(inf) and blame the function for its non-finite sample.
    def f(t):
        raise AssertionError(f"sampled at t={t}")

    # A nan end is not a real number; the domain's own rule refuses the rest.
    message = ("^domain end must be a real number" if any(map(math.isnan, domain))
               else "^domain must be finite with t_lo < t_hi")
    with pytest.raises(ValueError, match=message):
        discretize(f, 2, domain)


def test_discretize_custom_domain_midpoints():
    sf = discretize(lambda t: t, 1, domain=(2.0, 4.0))
    assert np.array_equal(sf.values, [2.5, 3.5])
    assert np.array_equal(sf.midpoints, [2.5, 3.5])


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(np.ones(3))
    with pytest.raises(ValueError):
        SampledFunction(np.ones(4), domain=(1.0, 1.0))
    with pytest.raises(ValueError, match="domain must be finite"):
        SampledFunction(np.ones(4), domain=(0.0, math.inf))
    # Both ends finite, but t_hi - t_lo is inf: every integral would be inf.
    with pytest.raises(ValueError, match="a finite width"):
        SampledFunction(np.ones(4), domain=(-1e308, 1e308))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sampled_function_refuses_non_finite_samples(bad):
    # discretize and IVProblem.initial already refused these; the constructor let them in.
    with pytest.raises(ValueError) as info:
        SampledFunction([0.5, bad, 1.0, bad])
    assert str(info.value) == f"samples must be finite, got {bad}"


def test_midpoints_of_a_wide_domain_do_not_overflow():
    # (t_hi - t_lo)(2m+1) passes the largest float though every midpoint is finite.
    t = walsh.midpoints(4, (0.0, 1e308))
    assert np.array_equal(t, [1.25e307, 3.75e307, 6.25e307, 8.75e307])


@pytest.mark.parametrize("make", [
    SampledFunction, pytest.param(lambda c: reconstruct(c, 0.5), id="reconstruct")])
@pytest.mark.parametrize("shape", [(2, 4), (1, 8), ()])
def test_sample_and_spectrum_reject_input_that_is_not_one_vector(make, shape):
    with pytest.raises(ValueError, match="must form a 1-D vector"):
        make(np.ones(shape))


@pytest.mark.parametrize("make", [
    SampledFunction, pytest.param(lambda c: reconstruct(c, 0.5), id="reconstruct")])
@pytest.mark.parametrize("size", [0, 1, 3, 6])
def test_sample_and_spectrum_reject_non_power_of_two_length(make, size):
    with pytest.raises(ValueError, match="power of two"):
        make(np.ones(size))


def test_reconstruct_roundtrip_with_transform():
    sf = discretize(lambda t: math.cos(math.pi * t), 2)
    assert abs(reconstruct(fwht(sf.values), 0.1) - math.cos(math.pi / 8)) < 1e-12


def test_reconstruct_zero_everywhere():
    for t in (0.0, 0.3, 0.99, 1.0):
        assert reconstruct(np.zeros(8), t) == 0.0


def test_reconstruct_pinned_combination():
    coeffs = 0.5 * np.array([0.0, 1.08, 2.61, 0.0])
    w1 = walsh_value(1, 0.3, 2)
    w2 = walsh_value(2, 0.3, 2)
    expected = 0.25 * (1.08 * w1 + 2.61 * w2)
    assert abs(reconstruct(coeffs, 0.3) - expected) < 1e-15


def walsh_value_sum(coeffs, t, n, ordering):
    """The term-by-term synthesis: one walsh_value call per coefficient."""
    total = 0.0
    for k in range(coeffs.size):
        total += coeffs[k] * walsh_value(k, t, n, ordering)
    return total / math.sqrt(coeffs.size)


@pytest.mark.parametrize("ordering", [NAT, SEQ])
def test_reconstruct_matches_walsh_value_oracle(ordering):
    # reconstruct takes natural order: a sequency spectrum is gathered first.
    rng = np.random.default_rng(2024)
    for n in range(1, 9):
        coeffs = rng.standard_normal(1 << n)
        natural = coeffs[ordering_permutation(n, ordering, NAT)]
        points = [0.0, 1.0, -0.25, 1.5, float("inf"), float("-inf"), *rng.random(8)]
        for t in points:
            assert abs(reconstruct(natural, t) - walsh_value_sum(coeffs, t, n, ordering)) <= 1e-14


def test_spectral_roundtrip_reproduces_samples():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5):
        values = rng.standard_normal(1 << n)
        back = fwht(fwht(values))
        assert np.max(np.abs(back - values)) < 1e-12
