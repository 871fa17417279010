"""Reentrancy of the pure operations and the synchronized matrix memo."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from walshode import (
    HybridConfig,
    apply_hadamard_all,
    builtin_problem,
    fwht,
    hybrid_wht,
    integration_matrix,
    picard_solve,
    SolverConfig,
    cli,
    transform,
)
from walshode.calculus import _cache
from walshode.quantum import _GATES


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
    # n=17 spans two blocks and a top stage run over four column chunks, so
    # every call uses its scratch for several passes while other threads run theirs.
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


def test_threaded_fwht_calls_share_nothing(monkeypatch):
    # n=20 is 16 blocks, so each of the 4 callers splits its passes over 3
    # threads of its own: 12 workers on the host's CPUs, each with its scratch.
    monkeypatch.setattr(transform, "_cpu_count", lambda: 3)
    rng = np.random.default_rng(2020)
    vectors = [rng.standard_normal(1 << 20) for _ in range(4)]
    expected = [fwht(v) for v in vectors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(fwht, vectors, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))


def test_hadamard_layer_shares_only_read_only_gates_across_threads():
    # n = 1..13 use every gate size; each call writes only its own products.
    rng = np.random.default_rng(1313)
    states = [rng.standard_normal(1 << n) for n in range(1, 14)] * 4
    expected = [apply_hadamard_all(s) for s in states]
    gates = [g.copy() for g in _GATES]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(apply_hadamard_all, states, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))
    assert all(not g.flags.writeable and np.array_equal(g, c) for g, c in zip(_GATES, gates))


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


def test_cli_solves_run_concurrently(tmp_path, capsys):
    # Every thread parses with the one shared parser and writes its own
    # directory; files and reports (minus elapsed_s) match a serial run's.
    specs = [
        ["--problem", "beer_system", "--trace"],
        ["--rhs", "x2", "--rhs", "sin(t)-x1", "--init", "0.5", "-0.25"],
        ["--problem", "riccati", "--backend", "hybrid-sampled", "--shots", "1000",
         "--seed", "4", "--trace"],
        ["--problem", "riccati", "--backend", "hybrid-exact", "--domain", "0.5", "2"],
    ] * 2

    def solve(job, root):
        out = root / str(job)
        argv = ["solve", *specs[job], "--n", "6", "--nmax", "8", "--output-dir", str(out)]
        assert cli.main(argv) == 0
        return out

    def reports(text, root):
        """The JSON reports printed in any order, by output directory, minus elapsed_s."""
        decoder, found, text = json.JSONDecoder(), {}, text.replace(str(root), "ROOT").strip()
        while text:
            report, end = decoder.raw_decode(text)
            text = text[end:].lstrip()
            del report["elapsed_s"]
            found[report["command"][-1]] = report
        return found

    jobs = range(len(specs))
    serial = [solve(job, tmp_path / "serial") for job in jobs]
    expected = reports(capsys.readouterr().out, tmp_path / "serial")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(solve, jobs, [tmp_path / "threads"] * len(specs),
                                     timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert reports(capsys.readouterr().out, tmp_path / "threads") == expected
    assert len(expected) == len(specs)
    for a, b in zip(serial, threaded):
        names = sorted(path.name for path in a.iterdir())
        assert names == sorted(path.name for path in b.iterdir())
        assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)
