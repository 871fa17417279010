"""Character table, orderings and sampling."""

import math

import numpy as np
import pytest

from walshode import walsh
from walshode import (
    WalshOrdering,
    character_eval,
    character_table,
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


def test_discretize_custom_domain_midpoints():
    sf = discretize(lambda t: t, 1, domain=(2.0, 4.0))
    assert np.array_equal(sf.values, [2.5, 3.5])
    assert np.array_equal(sf.midpoints, [2.5, 3.5])


def test_midpoints_of_a_wide_domain_do_not_overflow():
    # (t_hi - t_lo)(2m+1) passes the largest float though every midpoint is finite.
    t = walsh.midpoints(4, (0.0, 1e308))
    assert np.array_equal(t, [1.25e307, 3.75e307, 6.25e307, 8.75e307])


def test_reconstruct_roundtrip_with_transform():
    sf = discretize(lambda t: math.cos(math.pi * t), 2)
    assert abs(reconstruct(fwht(sf.values), 0.1) - math.cos(math.pi / 8)) < 1e-12


def test_reconstruct_zero_everywhere():
    for t in (0.0, 0.3, 0.99, 1.0):
        assert reconstruct(np.zeros(8), t) == 0.0


def test_reconstruct_scales_before_it_sums():
    # The sum of the coefficients, 1.9e308, overflows; the result, 4.8e307, does not.
    assert reconstruct(np.full(16, 1.2e307), 0.0) == 4.8e307


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
