"""Fast butterfly vs naive oracle and radix-2 reference, normalization, op counting."""

import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from walshode import OpCount, fwht, transform, wht_naive


def _radix2_fwht(v) -> np.ndarray:
    """Reference: one stride-doubling radix-2 pass over the whole vector per stage.

    fwht runs the low stages in constant geometry (sums to the first
    half, differences to the second) block by block, then this loop
    itself over column chunks, but must give every element the same
    operations on the same operands, so it has to agree with this
    reference bit for bit.
    """
    a = np.array(v, dtype=float)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo = pairs[:, 0, :] + pairs[:, 1, :]
        hi = pairs[:, 0, :] - pairs[:, 1, :]
        pairs[:, 0, :] = lo
        pairs[:, 1, :] = hi
        h *= 2
    a *= 1.0 / math.sqrt(a.size)
    return a


def test_naive_symbolic_n2():
    f = np.array([2.0, -1.0, 3.0, 5.0])
    expected = 0.5 * np.array(
        [
            f[0] + f[1] + f[2] + f[3],
            f[0] - f[1] + f[2] - f[3],
            f[0] + f[1] - f[2] - f[3],
            f[0] - f[1] - f[2] + f[3],
        ]
    )
    assert np.allclose(wht_naive(f), expected, rtol=0, atol=1e-15)


def test_naive_impulse_goes_flat():
    v = np.zeros(8)
    v[0] = 1.0
    assert np.allclose(wht_naive(v), np.full(8, 1 / math.sqrt(8)), rtol=0, atol=1e-15)


def test_naive_ramp_pinned_pair():
    out = wht_naive([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert np.allclose(out, 0.5 * np.array([2.0, -0.5, -1.0, 0.0]), rtol=0, atol=1e-15)


def test_fwht_cos_pi_t_pinned():
    mids = (2 * np.arange(4) + 1) / 8
    out = fwht(np.cos(np.pi * mids))
    assert np.max(np.abs(out - 0.5 * np.array([0, 1.0824, 2.6131, 0]))) < 5e-3


def test_fwht_cos_t_pinned():
    mids = (2 * np.arange(4) + 1) / 8
    out = fwht(np.cos(mids))
    # Reference display rounded to 3 decimals: half a display unit of slack.
    assert np.max(np.abs(out - 0.5 * np.array([3.375, 0.232, 0.471, -0.108]))) < 2.5e-4


def test_iwht_ramp_pair():
    # The inverse transform is fwht itself (the map is an involution).
    out = fwht(0.5 * np.array([2.0, -0.5, -1.0, 0.0]))
    assert np.allclose(out, [1 / 8, 3 / 8, 5 / 8, 7 / 8], rtol=0, atol=1e-15)


def test_iwht_integral_coefficients_bridge():
    # sqrt(N) times the unit-normalized inverse equals the unnormalized
    # synthesis; these coefficients come from a worked integration example.
    coeffs = np.array([0.459, -0.105, -0.214, -0.015])
    out = 2.0 * fwht(coeffs)
    expected = [0.125, 0.366, 0.585, 0.767]
    assert np.max(np.abs(out - expected)) < 5e-3


def test_parseval_and_linearity():
    rng = np.random.default_rng(99)
    for n in (1, 4, 8, 12):
        v = rng.standard_normal(1 << n)
        u = rng.standard_normal(1 << n)
        assert abs(np.linalg.norm(fwht(v)) - np.linalg.norm(v)) < 1e-12
        combo = fwht(2.5 * u - 0.3 * v)
        assert np.max(np.abs(combo - (2.5 * fwht(u) - 0.3 * fwht(v)))) < 1e-12


# Odd and even stage counts; up to one block (2^16), transformed and scaled
# whole; above it, 1 to 6 high stages run in place over column chunks, on
# one thread up to 8 rows (2^19) and from 16 rows on split across workers.
@pytest.mark.parametrize("n", range(1, 23))
def test_fwht_bit_identical_to_radix2_reference(n):
    v = np.random.default_rng(1000 + n).standard_normal(1 << n)
    assert fwht(v).tobytes() == _radix2_fwht(v).tobytes()


def test_fwht_bit_identical_on_signed_zeros_and_ties():
    # Cancellations produce +-0.0 and equal operands; bytes compare the signs.
    v = np.tile([1.0, -1.0, 0.5, -0.5, -0.0, 0.0, 3.0, -3.0], 1 << 15)
    assert fwht(v).tobytes() == _radix2_fwht(v).tobytes()


def _small_block_cases(monkeypatch, block, workers):
    # Blocks of 16 (4 low stages) and 32 (5).  Above one block: several
    # blocks, odd and even high stage counts, and chunks of a quarter
    # block, 4 of them.  From 8 blocks (2^7 or 2^8 points) on, the passes
    # are split across the workers, unevenly when 3 share 8 to 256 rows
    # and 4 chunks, and 5 workers share 8 chunks of an eighth block.
    monkeypatch.setattr(transform, "_BLOCK", block)
    monkeypatch.setattr(transform, "_RUN", block // 4)
    monkeypatch.setattr(transform, "_cpu_count", lambda: workers)
    for n in range(1, 13):
        v = np.random.default_rng(2000 + n).standard_normal(1 << n)
        assert fwht(v).tobytes() == _radix2_fwht(v).tobytes(), n
    v = np.tile([1.0, -1.0, 0.5, -0.5, -0.0, 0.0, 3.0, -3.0], 1 << 9)
    assert fwht(v).tobytes() == _radix2_fwht(v).tobytes()


@pytest.mark.parametrize("block", [16, 32])
def test_fwht_blocked_paths_bit_identical_at_small_block(monkeypatch, block):
    _small_block_cases(monkeypatch, block, workers=1)


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("block", [16, 32])
def test_fwht_threaded_paths_bit_identical_at_small_block(monkeypatch, block, workers):
    _small_block_cases(monkeypatch, block, workers)


@pytest.mark.parametrize("n", [19, 21, 22])  # n=19: 8 blocks, the fewest that take threads
def test_fwht_threaded_bit_identical_with_exact_count(monkeypatch, n):
    N = 1 << n
    v = np.random.default_rng(3000 + n).standard_normal(N)
    expected = _radix2_fwht(v).tobytes()
    for workers in (1, 2, 3):
        monkeypatch.setattr(transform, "_cpu_count", lambda: workers)
        count = OpCount()
        assert fwht(v, count).tobytes() == expected, workers
        assert (count.additions, count.multiplications, count.square_roots) == (N * n, N, 1)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _scratch_bound(N, workers):
    # The output and one block of scratch per worker, plus 512 KiB for
    # the rest: no N-sized temporary or input copy.  At one worker this
    # is 8N + 1 MiB.
    return 8 * N + workers * 8 * transform._BLOCK + (1 << 19)


def test_fwht_scratch_is_bounded():
    N = 1 << 20
    v = np.random.default_rng(20).standard_normal(N)
    _, peak = _traced_peak(fwht, v)
    workers = min(transform._cpu_count(), N // transform._BLOCK)
    assert peak <= _scratch_bound(N, workers)


@pytest.mark.parametrize("kind", ["contiguous", "strided"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fwht_threads_read_the_input_in_place(monkeypatch, workers, kind):
    # A strided view (every other value of 2^21) is read where it lies.
    N = 1 << 20
    big = np.random.default_rng(21).standard_normal(2 * N)
    keep = big.copy()
    v = big[::2] if kind == "strided" else big[:N]
    monkeypatch.setattr(transform, "_cpu_count", lambda: workers)
    out, peak = _traced_peak(fwht, v)
    assert peak <= _scratch_bound(N, workers)
    assert big.tobytes() == keep.tobytes()
    assert not np.shares_memory(out, big)
    assert out.tobytes() == _radix2_fwht(v).tobytes()


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("name", ["_stages", "_high_stages"], ids=["block-pass", "high-pass"])
def test_fwht_worker_failure_reaches_the_caller(monkeypatch, name):
    # The failing worker's exception is the caller's, and every thread the
    # call started has ended when it returns.  The fourth call fails: 16
    # blocks and 4 column chunks, taken by 3 workers.
    real = getattr(transform, name)
    calls = itertools.count()

    def failing(*args):
        if next(calls) == 3:
            raise _Boom("stage failed")
        return real(*args)

    monkeypatch.setattr(transform, name, failing)
    monkeypatch.setattr(transform, "_cpu_count", lambda: 3)
    before = threading.active_count()
    with pytest.raises(_Boom, match="stage failed"):
        fwht(np.ones(1 << 20))
    assert threading.active_count() == before


def test_fwht_workers_keep_the_callers_error_state(monkeypatch):
    # numpy's error state is a context variable, which pool threads do not
    # inherit by themselves; the overflow happens in the workers' first stage.
    monkeypatch.setattr(transform, "_cpu_count", lambda: 2)
    v = np.full(1 << 20, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(fwht(v)))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        fwht(v)


@pytest.mark.parametrize("cpus, expected", [(5, 5), (None, 1)])
def test_cpu_count_falls_back_without_an_affinity_call(monkeypatch, cpus, expected):
    monkeypatch.delattr(transform.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(transform.os, "cpu_count", lambda: cpus)
    assert transform._cpu_count() == expected


def test_fwht_addition_count_is_exact():
    for n in range(1, 19):
        N = 1 << n
        count = OpCount()
        fwht(np.ones(N), count)
        assert count.additions == N * n
        assert count.multiplications == N
        assert count.square_roots == 1


def test_opcount_accumulates_across_calls():
    count = OpCount()
    fwht(np.ones(4), count)
    fwht(np.ones(4), count)
    assert count.additions == 16
    assert count.total == count.additions + count.multiplications + count.square_roots


def test_naive_count_is_quadratic():
    count = OpCount()
    wht_naive(np.ones(8), count)
    assert count.additions == 8 * 7
    assert count.multiplications == 8 * 8 + 8


def test_fwht_small_results_share_no_memory():
    # Calls at one size reuse the calling thread's two buffers, never an output.
    v, w = np.random.default_rng(40).standard_normal((2, 1024))
    first = fwht(v)
    keep = first.copy()
    second = fwht(w)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == keep.tobytes()
    assert second.tobytes() == _radix2_fwht(w).tobytes()


def test_fwht_small_sizes_under_threads_match_the_reference():
    # Each thread has its own buffers per size: 8 threads run every size up
    # to one block, each from its own starting size, switching every 1 us.
    rng = np.random.default_rng(41)
    vectors = [rng.standard_normal(1 << n) for n in range(1, 17)]
    expected = [_radix2_fwht(v).tobytes() for v in vectors]

    def mismatches(worker):
        order = [(worker * 5 + k) % len(vectors) for k in range(2 * len(vectors))]
        return [k for k in order if fwht(vectors[k]).tobytes() != expected[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(mismatches, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [[]] * 8


def test_fwht_does_not_mutate_input():
    v = np.arange(4, dtype=float)
    keep = v.copy()
    fwht(v)
    assert np.array_equal(v, keep)


@pytest.mark.parametrize("kind", ["list", "int64", "float64", "strided", "read-only"])
def test_fwht_leaves_every_input_kind_untouched(kind):
    # fwht reads float64 input in place, so it must neither write to it
    # nor hand back a view of it.
    base = np.arange(1 << 18, dtype=np.int64) % 7 - 3
    if kind == "list":
        v = base[: 1 << 10].tolist()
    elif kind == "int64":
        v = base
    elif kind == "strided":
        v = base.astype(float)[::2]  # a non-contiguous view over 2^17 values
    else:
        v = base.astype(float)
        v.flags.writeable = kind != "read-only"
    keep = np.array(v, copy=True)
    out = fwht(v)
    assert np.array_equal(np.asarray(v), keep)
    assert not np.shares_memory(out, v)
    assert out.tobytes() == _radix2_fwht(keep).tobytes()
