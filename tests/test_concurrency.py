"""Reentrancy of the pure operations and the synchronized matrix memo."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from walshode import (
    HybridConfig,
    builtin_problem,
    fwht,
    hybrid_wht,
    integration_matrix,
    picard_solve,
    SolverConfig,
)
from walshode.calculus import _cache


def test_matrix_memo_is_shared_and_consistent_across_threads():
    _cache.clear()
    sizes = [4, 8, 16, 32, 64] * 8
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(integration_matrix, sizes))
    by_size = {}
    for N, matrix in zip(sizes, results):
        by_size.setdefault(N, []).append(matrix)
    for N, matrices in by_size.items():
        # One construction per size; every caller sees the same object.
        assert all(m is matrices[0] for m in matrices)
        assert matrices[0].entries.shape == (N, N)


def test_transforms_reentrant_under_threads():
    rng = np.random.default_rng(909)
    vectors = [rng.standard_normal(64) for _ in range(32)]
    expected = [fwht(v) for v in vectors]

    def work(v):
        out, _ = hybrid_wht(v, HybridConfig())
        return out

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(work, vectors))
    for g, e in zip(got, expected):
        assert np.max(np.abs(g - e)) < 1e-12


def test_blocked_fwht_shares_no_scratch_across_threads():
    # n=17 spans two blocks and a tiled top stage, so every call uses its
    # scratch for several passes while other threads run theirs.
    rng = np.random.default_rng(1717)
    vectors = [rng.standard_normal(1 << 17) for _ in range(16)]
    expected = [fwht(v) for v in vectors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(fwht, vectors, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))


def test_distinct_solves_run_concurrently():
    def work(n):
        solution, trace = picard_solve(
            builtin_problem("riccati", n=n), SolverConfig(n_max=10, tol=0.0)
        )
        return solution[0].values

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, [2, 2, 3, 3]))
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[2], results[3])
