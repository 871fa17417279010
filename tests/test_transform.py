"""Fast butterfly vs naive oracle and radix-2 reference, normalization, op counting."""

import math
import tracemalloc

import numpy as np
import pytest

from walshode import OpCount, fwht, iwht, transform, wht_naive


def _radix2_fwht(v) -> np.ndarray:
    """Reference: one stride-doubling radix-2 pass over the whole vector per stage.

    fwht runs the same stages in constant geometry (sums to the first
    half, differences to the second; blocks, then column tiles) but must
    give every element the same operations on the same operands, so it
    has to agree with this reference bit for bit.
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


def test_fwht_matches_naive_oracle():
    rng = np.random.default_rng(123)
    for n in range(1, 9):
        v = rng.standard_normal(1 << n)
        assert np.max(np.abs(fwht(v) - wht_naive(v))) < 1e-12


def test_fwht_random_n64_vs_oracle():
    rng = np.random.default_rng(64)
    v = rng.standard_normal(64)
    assert np.max(np.abs(fwht(v) - wht_naive(v))) < 1e-12


def test_fwht_is_involution():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(256)
    assert np.max(np.abs(fwht(fwht(v)) - v)) < 1e-12


def test_fwht_cos_pi_t_pinned():
    mids = (2 * np.arange(4) + 1) / 8
    out = fwht(np.cos(np.pi * mids))
    assert np.max(np.abs(out - 0.5 * np.array([0, 1.0824, 2.6131, 0]))) < 5e-3


def test_fwht_cos_t_pinned():
    mids = (2 * np.arange(4) + 1) / 8
    out = fwht(np.cos(mids))
    # Reference display rounded to 3 decimals: half a display unit of slack.
    assert np.max(np.abs(out - 0.5 * np.array([3.375, 0.232, 0.471, -0.108]))) < 2.5e-4


def test_iwht_inverts_fwht():
    rng = np.random.default_rng(17)
    v = rng.standard_normal(128)
    assert np.max(np.abs(iwht(fwht(v)) - v)) < 1e-12


def test_iwht_ramp_pair():
    out = iwht(0.5 * np.array([2.0, -0.5, -1.0, 0.0]))
    assert np.allclose(out, [1 / 8, 3 / 8, 5 / 8, 7 / 8], rtol=0, atol=1e-15)


def test_iwht_integral_coefficients_bridge():
    # sqrt(N) times the unit-normalized inverse equals the unnormalized
    # synthesis; these coefficients come from a worked integration example.
    coeffs = np.array([0.459, -0.105, -0.214, -0.015])
    out = 2.0 * iwht(coeffs)
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


def test_rejects_bad_lengths():
    for bad in ([], [1.0], [1.0, 2.0, 3.0], np.ones(12)):
        with pytest.raises(ValueError):
            fwht(bad)
        with pytest.raises(ValueError):
            wht_naive(bad)


# Odd and even stage counts; up to one block (2^16), transformed and scaled
# whole; above it, 1, 2, 4 and 5 high stages run over column tiles.
@pytest.mark.parametrize("n", [*range(1, 19), 20, 21])
def test_fwht_bit_identical_to_radix2_reference(n):
    v = np.random.default_rng(1000 + n).standard_normal(1 << n)
    assert fwht(v).tobytes() == _radix2_fwht(v).tobytes()


def test_fwht_bit_identical_on_signed_zeros_and_ties():
    # Cancellations produce +-0.0 and equal operands; bytes compare the signs.
    v = np.tile([1.0, -1.0, 0.5, -0.5, -0.0, 0.0, 3.0, -3.0], 1 << 15)
    assert fwht(v).tobytes() == _radix2_fwht(v).tobytes()


@pytest.mark.parametrize("block", [16, 32])
def test_fwht_blocked_paths_bit_identical_at_small_block(monkeypatch, block):
    # Blocks of 16 (4 low stages) and 32 (5).  Above one block: several
    # blocks and tiles, odd and even high stage counts and, from 2^8 or
    # 2^10 points, more rows than a tile holds, so tiles are one column.
    monkeypatch.setattr(transform, "_BLOCK", block)
    monkeypatch.setattr(transform, "_TILE", block // 2)
    for n in range(1, 13):
        v = np.random.default_rng(2000 + n).standard_normal(1 << n)
        assert fwht(v).tobytes() == _radix2_fwht(v).tobytes(), n
    v = np.tile([1.0, -1.0, 0.5, -0.5, -0.0, 0.0, 3.0, -3.0], 1 << 9)
    assert fwht(v).tobytes() == _radix2_fwht(v).tobytes()


def test_fwht_scratch_is_bounded():
    # The output plus one block of scratch: no N-sized temporary or input copy.
    N = 1 << 20
    v = np.random.default_rng(20).standard_normal(N)
    tracemalloc.start()
    try:
        fwht(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * N + (1 << 20)


def test_fwht_addition_count_is_exact():
    for n in range(1, 19):
        N = 1 << n
        count = OpCount()
        fwht(np.ones(N), count)
        assert count.additions == N * n
        assert count.multiplications == N
        assert count.square_roots == 1


def test_fwht_n2_addition_count():
    count = OpCount()
    fwht([1.0, 2.0], count)
    assert count.additions == 2


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


@pytest.mark.parametrize("fn", [fwht, iwht, wht_naive])
@pytest.mark.parametrize("shape", [(2, 4), (1, 8), (8, 1), ()])
def test_rejects_input_that_is_not_one_vector(fn, shape):
    with pytest.raises(ValueError, match="must form a 1-D vector"):
        fn(np.ones(shape))
