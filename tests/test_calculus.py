"""Operational matrices and Walsh-domain integration."""

import gc
import weakref

import numpy as np
import pytest

from walshode import (
    HybridConfig,
    character_table,
    differentiation_matrix,
    discretize,
    fwht,
    integrate_sampled,
    integration_matrix,
    time_integration_operator,
)

from trapezoid_march import trapezoid_integral


def dense_integration_oracle(n):
    """H J H / N with the unnormalized sign table: exact on dyadics."""
    N = 1 << n
    H = character_table(n).astype(float)
    return H @ time_integration_operator(N) @ H / N


def dense_differentiation_oracle(n):
    """H (2N M^-1) H / N, where J = M / 2N and M = I + 2L (L strictly lower ones).

    M^-1 has 1 on the diagonal and 2(-1)^(i-j) below it, so every product
    stays an integer and the result is exact.
    """
    N = 1 << n
    H = character_table(n).astype(float)
    i, j = np.indices((N, N))
    m_inv = np.where(i == j, 1.0, np.where(i > j, 2.0 * (-1.0) ** (i - j), 0.0))
    return H @ (2.0 * N * m_inv) @ H / N


# ---------------------------------------------------------------------------
# time-domain operator


def test_time_operator_constant_integrand():
    J = time_integration_operator(4)
    out = J @ (0.75 * np.ones(4))
    assert np.array_equal(out, 0.75 * np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8]))


def test_time_operator_first_cell():
    J = time_integration_operator(2)
    assert np.array_equal(J @ np.array([1.0, 0.0]), [0.25, 0.5])


def test_time_operator_square_wave():
    # The fastest square wave [1,-1,1,-1] integrates to a flat 1/8 at every
    # midpoint: each full cell cancels, each half cell contributes 1/8.
    J = time_integration_operator(4)
    row = character_table(2)[1].astype(float)
    assert np.array_equal(J @ row, np.full(4, 1 / 8))


def test_sparse_operators_equal_dense_oracle_bit_for_bit():
    for n in range(1, 11):
        N = 1 << n
        for matrix, oracle in (
            (integration_matrix(N), dense_integration_oracle(n)),
            (differentiation_matrix(N), dense_differentiation_oracle(n)),
        ):
            assert matrix.values.size == 2 * N - 1
            assert np.array_equal(matrix.entries, oracle), (matrix.kind, n)


def test_operators_hold_half_size_integration_blocks():
    # I_N[0::2, 0::2] = I_{N/2} and D_N[1::2, 1::2] = 4N^2 I_{N/2}, with the
    # pairs (k, k+1), k even, coupled by -+1/(2N) in I_N and +-2N in D_N.
    for n in range(2, 11):
        N = 1 << n
        half = integration_matrix(N // 2).entries
        I, D = integration_matrix(N).entries, differentiation_matrix(N).entries
        assert np.array_equal(I[0::2, 0::2], half), n
        assert np.array_equal(D[1::2, 1::2], 4.0 * N * N * half), n
        k = np.arange(0, N, 2)
        assert np.all(I[k, k + 1] == 1 / (2 * N)) and np.all(I[k + 1, k] == -1 / (2 * N))
        assert np.all(D[k, k + 1] == -2.0 * N) and np.all(D[k + 1, k] == 2.0 * N)
        assert not D[0::2, 0::2].any(), n
        # The couplings and the two blocks hold every nonzero.
        assert np.count_nonzero(I) == np.count_nonzero(half) + N, n
        assert np.count_nonzero(D) == np.count_nonzero(half) + N, n


def test_apply_matches_dense_product():
    rng = np.random.default_rng(2024)
    for N in (2, 8, 64, 1024):
        for matrix in (integration_matrix(N), differentiation_matrix(N)):
            c = rng.standard_normal(N)
            dense = matrix.entries @ c
            scale = np.abs(matrix.entries) @ np.abs(c)
            assert np.all(np.abs(matrix.apply(c) - dense) <= 1e-15 * scale)


def test_apply_is_the_one_scatter_add_byte_for_byte():
    # The reference is one gather and one bincount over the public nonzero
    # arrays, in their order; apply (np.add.at) must match it byte for byte:
    # on dyadic inputs with signed zeros, whose terms cancel exactly, and on
    # normal ones, whose sums round.
    rng = np.random.default_rng(23)
    dyadic = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    for n in range(1, 21):
        N = 1 << n
        for c in (rng.choice(dyadic, N), rng.standard_normal(N)):
            for M in (integration_matrix(N), differentiation_matrix(N)):
                one_scatter = np.bincount(M.rows, weights=M.values * c[M.cols], minlength=N)
                assert M.apply(c).tobytes() == one_scatter.tobytes(), (M.kind, n)
                if n <= 10:  # a list is read as float64, as every vector entry point reads one
                    assert M.apply(c.tolist()).tobytes() == one_scatter.tobytes(), (M.kind, n)


def test_classical_integral_is_the_closed_form_trapezoid():
    # integrate_sampled(f) = (cumsum(f) - f/2) h: the dense oracles stop short of n=20.
    rng = np.random.default_rng(20)
    lo, hi = -0.5, 2.5
    for n in range(1, 21):
        N = 1 << n
        f = rng.standard_normal(N)
        h = (hi - lo) / N
        got = integrate_sampled(f, (lo, hi))
        error = np.max(np.abs(got - trapezoid_integral(f, hi - lo)))
        assert error <= n * 2.0**-52 * h * np.sum(np.abs(f)), n


def test_differentiation_inverts_integration():
    for N in (2, 4, 8, 32, 256):
        D = differentiation_matrix(N).entries
        I = integration_matrix(N).entries
        assert np.max(np.abs(D @ I - np.eye(N))) < 1e-10


def test_matrix_metadata_and_immutability():
    m = integration_matrix(8)
    assert m.kind == "integration"
    assert m.n == 3
    with pytest.raises(ValueError):
        m.entries[0, 0] = 99.0
    assert differentiation_matrix(8).kind == "differentiation"


def test_caching_returns_same_object():
    assert integration_matrix(16) is integration_matrix(16)


def test_dense_entries_are_never_kept():
    # The memo keeps the sparse operator only: a dense form dies with its
    # last caller reference, and each access builds a fresh one.
    matrix = integration_matrix(64)
    dense = matrix.entries
    assert matrix.entries is not dense
    alive = weakref.ref(dense)
    del dense
    gc.collect()
    assert alive() is None


def test_conjugation_roundtrip_recovers_time_operator():
    for N in (2, 4, 8, 64):
        n = N.bit_length() - 1
        H = character_table(n).astype(float) / np.sqrt(N)
        got = H @ integration_matrix(N).entries @ H
        assert np.max(np.abs(got - time_integration_operator(N))) < 1e-12


def test_sparsity_structure():
    # Measured structure: row 0 carries n+1 nonzeros, row 2^j carries j+1,
    # and the total is 2N-1, i.e. O(N), comfortably inside O(N log N).
    for N in (4, 8, 16, 64, 256):
        n = N.bit_length() - 1
        entries = integration_matrix(N).entries
        nnz_rows = [int(np.count_nonzero(row)) for row in entries]
        assert nnz_rows[0] == n + 1
        for j in range(1, n):
            assert nnz_rows[1 << j] == j + 1
        assert max(nnz_rows) == n + 1
        assert sum(nnz_rows) == 2 * N - 1
        assert sum(nnz_rows) <= 3 * N * max(n, 1)
    # The published 4x4 display has at most 3 nonzeros per row; the 8x8 one
    # tops out at 4 (its first row).
    assert max(np.count_nonzero(r) for r in integration_matrix(4).entries) == 3
    assert max(np.count_nonzero(r) for r in integration_matrix(8).entries) == 4


def test_differentiation_sparsity_measured():
    # No asymptotic claim: record that the inverse stays as sparse as the
    # forward operator at these sizes.
    for N in (4, 8, 64, 256):
        assert np.count_nonzero(differentiation_matrix(N).entries) == 2 * N - 1


# ---------------------------------------------------------------------------
# integrate_sampled


def test_integrate_cos_time_domain_pinned():
    f = discretize(np.cos, 2)
    out = integrate_sampled(f.values, f.domain)
    assert np.max(np.abs(out - [0.125, 0.366, 0.585, 0.767])) < 5e-3
    # The true antiderivative is sin; midpoint quadrature error ~ 2e-3.
    assert np.max(np.abs(out - np.sin(f.midpoints))) < 5e-3


def test_integrate_cos_spectral_coefficients_pinned():
    # Reference display [0.459, -0.105, -0.214, -0.015] was printed from the
    # cosine samples rounded to 3 decimals (acceptance criterion 4d checks
    # it on those samples), so it sits up to ~1e-3 from the unrounded
    # pipeline (component 0 differs by 5.06e-4).
    f = discretize(np.cos, 2)
    out = integrate_sampled(f.values, f.domain)
    coords = fwht(out) / 2.0  # unit-synthesis coordinates at N=4
    display = np.array([0.459, -0.105, -0.214, -0.015])
    assert np.max(np.abs(coords - display)) < 1e-3


def test_integration_matrix_reproduces_worked_multiplication():
    # The alternative rounding route: the unrounded coordinates rounded to
    # 3 decimals, multiplied by the matrix, must also land within half a
    # display unit of the display (which criterion 4d reproduces from the
    # 3-dp samples).  Component 1 is an exact decimal tie, -0.1055, whose
    # float distance from -0.105 is 5.000000000000004e-4, hence the 1e-12
    # guard; np.round takes that tie to -0.106.
    rounded_coords = np.array([0.844, 0.058, 0.118, -0.027])
    got = integration_matrix(4).entries @ rounded_coords
    display = np.array([0.459, -0.105, -0.214, -0.015])
    assert np.max(np.abs(got - display)) <= 5e-4 + 1e-12


def test_integrate_zero():
    assert np.array_equal(integrate_sampled(np.zeros(8)), np.zeros(8))


def test_integrals_of_the_four_basis_functions():
    # Running integrals of the N=4 natural-ordered square waves, as sampled
    # midpoint vectors and as spectra; together these pin every column of
    # the 4x4 integration matrix.
    table = character_table(2).astype(float)
    expected_time = {
        0: [1 / 8, 3 / 8, 5 / 8, 7 / 8],
        1: [1 / 8, 1 / 8, 1 / 8, 1 / 8],
        2: [1 / 8, 3 / 8, 3 / 8, 1 / 8],
        3: [1 / 8, 1 / 8, -1 / 8, -1 / 8],
    }
    expected_spectrum = {
        0: 0.5 * np.array([2, -1 / 2, -1, 0]),
        1: 0.5 * np.array([1 / 2, 0, 0, 0]),
        2: 0.5 * np.array([1, 0, 0, -1 / 2]),
        3: 0.5 * np.array([0, 0, 1 / 2, 0]),
    }
    for k in range(4):
        out = integrate_sampled(table[k])
        assert np.array_equal(out, expected_time[k])
        assert np.array_equal(fwht(out), expected_spectrum[k])


def test_integrate_matches_time_operator_oracle():
    rng = np.random.default_rng(1234)
    for N in (4, 8, 32):
        vals = rng.standard_normal(N)
        via_transforms = integrate_sampled(vals)
        via_oracle = time_integration_operator(N) @ vals
        assert np.max(np.abs(via_transforms - via_oracle)) < 1e-12


def test_exact_on_dyadic_constants():
    # Even qubit counts keep every step dyadic, so the antiderivative of a
    # dyadic constant equals kappa * t_m bit-for-bit.
    for N in (4, 16, 64):
        mids = (2 * np.arange(N) + 1) / (2 * N)
        for kappa in (1.0, 0.75, -2.5, 3.0):
            out = integrate_sampled(np.full(N, kappa))
            assert np.array_equal(out, kappa * mids)


def test_near_exact_on_constants_odd_n():
    # Odd qubit counts scale by irrational 1/sqrt(N); only roundoff-level
    # error is acceptable.
    N = 8
    mids = (2 * np.arange(N) + 1) / (2 * N)
    out = integrate_sampled(np.full(N, 1 / 3))
    assert np.max(np.abs(out - mids / 3)) < 1e-15


def test_domain_rescaling():
    # integral of a constant over [2, 6]: slope kappa from t_lo.
    f = discretize(lambda t: 0.5, 2, domain=(2.0, 6.0))
    out = integrate_sampled(f.values, f.domain)
    expected = 0.5 * (f.midpoints - 2.0)
    assert np.max(np.abs(out - expected)) < 1e-14


def test_backend_equivalence_classical_vs_hybrid_exact():
    rng = np.random.default_rng(55)
    for N in (4, 16, 128):
        vals = rng.standard_normal(N)
        classical = integrate_sampled(vals)
        hybrid = integrate_sampled(vals, cfg=HybridConfig())
        assert np.max(np.abs(classical - hybrid)) < 1e-10
