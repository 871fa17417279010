"""Character table, orderings and sampling."""

import math

import numpy as np
import pytest

from walshode import walsh
from walshode import (
    WalshOrdering,
    character_table,
    discretize,
    fwht,
    ordering_permutation,
    reconstruct,
    sequency_walsh_recursive,
)

NAT = WalshOrdering.NATURAL
SEQ = WalshOrdering.SEQUENCY


def sign_changes(row):
    return int(np.sum(row[1:] != row[:-1]))


# ---------------------------------------------------------------------------
# character_table


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
# discretize / reconstruct


def test_discretize_cos_pi_t():
    sf = discretize(lambda t: np.cos(np.pi * t), 2)
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


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("domain", [(0.0, 1.0), (-1.0, 2.0)])
def test_discretize_calls_f_once_on_the_midpoint_grid(n, domain):
    calls = []

    def f(t):
        calls.append(t.copy())
        return np.sin(t)

    sf = discretize(f, n, domain=domain)
    [t] = calls
    assert t.dtype == np.float64
    assert np.array_equal(t, walsh.midpoints(1 << n, domain))
    assert np.array_equal(sf.values, np.sin(t))


@pytest.mark.parametrize("value", [2.5, np.float64(-0.75), np.array(3.0), np.array([1.25])])
def test_discretize_broadcasts_a_scalar_result(value):
    sf = discretize(lambda t: value, 2)
    assert sf.values.shape == (4,)
    assert np.array_equal(sf.values, np.full(4, np.ravel(value)[0]))


def test_midpoints_of_a_wide_domain_do_not_overflow():
    # (t_hi - t_lo)(2m+1) passes the largest float though every midpoint is finite.
    t = walsh.midpoints(4, (0.0, 1e308))
    assert np.array_equal(t, [1.25e307, 3.75e307, 6.25e307, 8.75e307])


def test_reconstruct_roundtrip_with_transform():
    sf = discretize(lambda t: np.cos(np.pi * t), 2)
    assert abs(reconstruct(fwht(sf.values), 0.1) - math.cos(math.pi / 8)) < 1e-12


def test_reconstruct_zero_everywhere():
    for t in (0.0, 0.3, 0.99, 1.0):
        assert reconstruct(np.zeros(8), t) == 0.0


def test_reconstruct_scales_before_it_sums():
    # The sum of the coefficients, 1.9e308, overflows; the result, 4.8e307, does not.
    assert reconstruct(np.full(16, 1.2e307), 0.0) == 4.8e307


def test_reconstruct_pinned_combination():
    # t = 0.3 is in cell 1, where W_1 = -1 and W_2 = 1: 0.25 * (-1.08 + 2.61).
    coeffs = 0.5 * np.array([0.0, 1.08, 2.61, 0.0])
    assert abs(reconstruct(coeffs, 0.3) - 0.3825) < 1e-15


@pytest.mark.parametrize("t", [-0.1, 1.1, -5e-324, 1.0 + 2**-52, -1e300, 1e300])
def test_reconstruct_is_zero_outside_the_interval(t):
    assert reconstruct(np.array([1.5, -0.25, 2.0, 0.75]), t) == 0.0


@pytest.mark.parametrize("n", range(1, 7))
def test_reconstruct_reads_the_last_cell_at_one(n):
    N = 1 << n
    coeffs = np.random.default_rng([11, n]).standard_normal(N)
    assert reconstruct(coeffs, 1.0) == reconstruct(coeffs, 1.0 - 0.5 / N) != 0.0


def recursive_sum(sequency, t):
    """The term-by-term synthesis of a sequency spectrum by the recursive definition."""
    scale = math.sqrt(sequency.size)
    return sum(c * (sequency_walsh_recursive(s, t) / scale) for s, c in enumerate(sequency))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("ordering", [NAT, SEQ])
def test_reconstruct_matches_the_recursive_oracle(ordering, n):
    # reconstruct takes natural order: a sequency spectrum is gathered first.
    rng = np.random.default_rng([2024, n])
    coeffs = rng.standard_normal(1 << n)
    natural = coeffs[ordering_permutation(n, ordering, NAT)]
    sequency = coeffs[ordering_permutation(n, ordering, SEQ)]
    points = [0.0, 1.0, -0.25, 1.5, float("inf"), float("-inf"), *rng.random(8)]
    for t in points:
        assert abs(reconstruct(natural, t) - recursive_sum(sequency, t)) <= 1e-14


@pytest.mark.parametrize("n", range(1, 7))
def test_the_sign_of_a_unit_synthesis_is_the_recursive_function(n):
    # walsh_value's replacement: np.sign(reconstruct(e_k, t)) is natural function k at t;
    # gathered through ordering_permutation, it is sequency function s at every midpoint.
    N = 1 << n
    perm = ordering_permutation(n, NAT, SEQ)  # perm[s]: the natural row of sequency s
    for s in range(N):
        unit = np.zeros(N)
        unit[perm[s]] = 1.0
        for m in range(N):
            t = (2 * m + 1) / (2 * N)
            assert np.sign(reconstruct(unit, t)) == sequency_walsh_recursive(s, t)


def test_spectral_roundtrip_reproduces_samples():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5):
        values = rng.standard_normal(1 << n)
        back = fwht(fwht(values))
        assert np.max(np.abs(back - values)) < 1e-12
