"""Sign-safe Walsh-Hadamard transform through the simulated quantum layer.

Measurement only yields squared amplitudes, so the signs of the
transformed components are lost.  The fix exploits a structural fact:
if the first component of a vector strictly dominates the absolute sum
of the rest, every component of its Walsh-Hadamard transform is a
positive combination and the square root is unambiguous.

The pipeline for an arbitrary real input a of length N = 2^n:

    shift  = epsilon + sum_k |a_k|         (placed into slot 0)
    norm   = ||shifted vector||_2
    p_k    = measured probabilities of H-on-all-qubits on shifted/norm
    offset = (shift - a_0) / sqrt(N)
    out_k  = norm * sqrt(p_k) - offset

Replacing slot 0 moves every transform component by the same constant,
because the shifted and original vectors differ in one component only;
subtracting ``offset`` therefore recovers the transform of the original
vector.  Any epsilon > 0 works, including for the all-zero input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .quantum import (
    DEFAULT_SEED,
    apply_hadamard_all,
    measure_exact,
    measure_sampled,
    prepare_state,
)
from .transform import OpCount, _require_vector

_MODES = ("exact", "sampled")


@dataclass(frozen=True)
class HybridConfig:
    """Knobs for one transform run.

    ``epsilon`` is the strictly positive shift margin; None selects
    1e-3 * (1 + sum|a_k|), large enough for strict positivity without
    concentrating amplitude on the shifted slot.
    """

    epsilon: float | None = None
    mode: str = "exact"
    shots: int | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be strictly positive, got {self.epsilon}")
        if self.mode == "sampled":
            if self.shots is None:
                raise ValueError("sampled mode requires a shot count")
            if self.shots < 1:
                raise ValueError(f"shots must be >= 1, got {self.shots}")

    def child(self, *key: int) -> HybridConfig:
        """Reseeded by child ``key`` of ``seed``: independent, and replayable.

        Exact mode draws nothing, so it returns this config unchanged.
        """
        if self.mode == "exact":
            return self
        state = np.random.SeedSequence(self.seed, spawn_key=key).generate_state(1)
        return replace(self, seed=int(state[0]))


@dataclass
class HybridTrace:
    """Intermediate quantities of one run, kept for inspection and tests.

    ``sub_resolution`` flags components whose magnitude fell below the
    one-shot noise scale norm/sqrt(shots) (sampled mode only): their
    values are reported as-is but cannot be trusted at that shot budget.
    """

    shift: float
    norm: float
    offset: float
    probabilities: np.ndarray
    output: np.ndarray
    sub_resolution: np.ndarray | None = None


def sign_safe(v) -> bool:
    """True iff v[0] strictly exceeds the absolute sum of the remaining entries."""
    a = np.asarray(v, dtype=float)
    _require_vector(a)
    return bool(a[0] > np.sum(np.abs(a[1:])))


def hybrid_wht(
    v, cfg: HybridConfig | None = None, count: OpCount | None = None
) -> tuple[np.ndarray, HybridTrace]:
    """Transform an arbitrary real vector via shift, H layer, measurement.

    In exact mode the result equals ``transform.fwht(v)`` up to roundoff;
    in sampled mode it carries statistical noise of order
    norm/sqrt(shots) per component.

    ``count`` tallies the classical pre/post-processing only (the
    simulated quantum layer stands in for hardware and is not costed):
    7N ops in exact mode, 8N in sampled mode (N more for counts / shots).
    """
    if cfg is None:
        cfg = HybridConfig()
    a = np.asarray(v, dtype=float)
    _require_vector(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("input vector must be finite")
    N = a.size

    abs_sum = float(np.sum(np.abs(a)))
    epsilon = cfg.epsilon if cfg.epsilon is not None else 1e-3 * (1.0 + abs_sum)
    shift = epsilon + abs_sum
    if count is not None:
        count.additions += N

    tail_sq = float(np.sum(a[1:] ** 2))
    norm = math.sqrt(shift * shift + tail_sq)
    if count is not None:
        count.multiplications += N
        count.additions += N - 1
        count.square_roots += 1

    shifted = a.copy()
    shifted[0] = shift
    state = prepare_state(shifted / norm)
    if count is not None:
        count.multiplications += N

    state = apply_hadamard_all(state)
    if cfg.mode == "exact":
        p = measure_exact(state).probabilities
    else:
        result = measure_sampled(state, cfg.shots, cfg.seed)
        p = result.counts / result.shots
        if count is not None:
            count.multiplications += N

    offset = (shift - a[0]) / math.sqrt(N)
    out = norm * np.sqrt(p) - offset
    if count is not None:
        count.square_roots += N
        count.multiplications += N
        count.additions += N

    flags = None
    if cfg.mode == "sampled":
        flags = np.abs(out) < norm / math.sqrt(cfg.shots)
    trace = HybridTrace(
        shift=shift,
        norm=norm,
        offset=offset,
        probabilities=p,
        output=out.copy(),
        sub_resolution=flags,
    )
    return out, trace


def classical_side_opcount(N: int) -> OpCount:
    """Deterministic per-run tally of the classical work for a length-N input.

    Counts scale linearly: 3N-1 additions, 3N multiplications and N+1
    square roots, for a total of exactly 7N in exact mode (8N sampled).
    """
    count = OpCount()
    hybrid_wht(np.zeros(N), HybridConfig(mode="exact"), count)
    return count
