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
vector.  Any epsilon > 0 works, zero input too, unless the squared norm
underflows; that, or its overflow, raises FloatingPointError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import require_bytes
from .quantum import (_MAX_SHOTS, _require_key, apply_hadamard_all, measure_exact,
                      measure_sampled, prepare_state)
from .transform import OpCount
from .walsh import _require_finite, _require_int, _require_length, _require_real, _require_vector

#: The settings each hybrid backend takes; any other backend takes none.
_SETTINGS = {"hybrid-exact": ("epsilon",), "hybrid-sampled": ("epsilon", "shots", "seed")}


@dataclass(frozen=True)
class HybridConfig:
    """Knobs for one transform run; a shot count makes it sampled.

    ``epsilon`` is the shift margin, > 0 and finite by ``walsh``'s real-number rule;
    None selects 1e-3 * (1 + sum|a_k|), large enough for strict positivity without
    concentrating amplitude on the shifted slot.  ``shots`` None reads the exact
    probabilities and needs no seed; otherwise it draws that many from stream
    ``spawn_key`` of ``seed``, which must then be given, by the integer rule that
    ``quantum.measure_sampled`` states, so every sampled run is replayable.
    """

    epsilon: float | None = None
    shots: int | None = None
    seed: int | None = None
    spawn_key: tuple[int, ...] = ()

    def __post_init__(self):
        if self.epsilon is not None:
            _require_real(self.epsilon, "epsilon", 0, strict=True)
        if self.shots is not None:
            _require_int(self.shots, "shots", 1, _MAX_SHOTS)
        # An exact run draws nothing, so its seed may be None; its key is checked all the same.
        if self.shots is not None or self.seed is not None:
            _require_int(self.seed, "seed", 0)
        _require_key(self.spawn_key)

    @property
    def mode(self) -> str:
        """The run's kind, decided by ``shots``: "exact" or "sampled"."""
        return "exact" if self.shots is None else "sampled"

    def child(self, *key: int) -> HybridConfig:
        """This config drawing from stream ``spawn_key + key`` of ``seed``: independent, replayable.

        An exact run draws nothing, so it returns this config unchanged.
        """
        if self.shots is None:
            return self
        return HybridConfig(self.epsilon, self.shots, self.seed, self.spawn_key + key)


def backend_config(backend, epsilon=None, shots=None, seed=None) -> HybridConfig | None:
    """The HybridConfig of a backend's settings (None: not given); None if not hybrid.

    hybrid-exact takes ``epsilon``, hybrid-sampled takes all three and needs
    ``shots`` and ``seed``, any other backend none; a setting it would ignore raises ValueError.
    """
    takes = _SETTINGS.get(backend, ())
    for name, value in (("epsilon", epsilon), ("shots", shots), ("seed", seed)):
        if value is not None and name not in takes:
            raise ValueError(f"{name} does not apply to backend {backend}")
    if "shots" in takes and shots is None:
        raise ValueError(f"backend {backend} requires a shot count")
    return HybridConfig(epsilon, shots, seed) if takes else None


@dataclass
class HybridTrace:
    """Intermediate quantities of one run, kept for inspection and tests.

    ``sub_resolution`` flags components whose magnitude fell below the
    noise scale norm/sqrt(shots) (sampled mode only): their values are
    reported as-is but cannot be trusted at that shot budget.  The
    threshold is at least 2 sigma_k, where sigma_k =
    norm*sqrt(1 - p_k)/(2*sqrt(shots)) is the standard deviation of
    component k (delta method on the multinomial counts).
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

        shift = epsilon + sum|a_k|          N additions
        norm  = sqrt(shift^2 + sum a_k^2)   N mult., N-1 additions, 1 sqrt
        shifted / norm                      N multiplications
        p = counts / shots (sampled only)   N multiplications
        norm * sqrt(p_k) - offset           N sqrt, N mult., N additions

    That is 3N-1 additions, 3N multiplications (4N sampled) and N+1
    square roots: exactly 7N in exact mode and 8N in sampled mode.
    """
    if cfg is None:
        cfg = HybridConfig()
    a = np.asarray(v, dtype=float)
    _require_vector(a)
    _require_finite(a, "input vector")
    N = a.size

    with np.errstate(over="ignore"):  # an overflowing sum makes norm_sq inf, refused below
        abs_sum = float(np.abs(a).sum())
        rest_sq = float((a[1:] ** 2).sum())
    epsilon = cfg.epsilon if cfg.epsilon is not None else 1e-3 * (1.0 + abs_sum)
    shift = epsilon + abs_sum
    norm_sq = shift * shift + rest_sq
    if not sys.float_info.min <= norm_sq < math.inf:
        way = "overflows" if norm_sq > 1.0 else "underflows"
        raise FloatingPointError(
            f"the shifted vector's squared norm {way} float64 (shift {shift!r})")
    norm = math.sqrt(norm_sq)

    shifted = a / norm
    shifted[0] = shift / norm
    state = apply_hadamard_all(prepare_state(shifted))
    sampled = cfg.shots is not None
    if sampled:
        p = measure_sampled(state, cfg.shots, cfg.seed, cfg.spawn_key) / cfg.shots
    else:
        p = measure_exact(state)

    offset = (shift - a[0]) / math.sqrt(N)
    out = norm * np.sqrt(p) - offset
    if count is not None:
        count.additions += 3 * N - 1
        count.multiplications += (4 if sampled else 3) * N
        count.square_roots += N + 1

    flags = np.abs(out) < norm / math.sqrt(cfg.shots) if sampled else None
    return out, HybridTrace(shift=shift, norm=norm, offset=offset, probabilities=p,
                            output=out.copy(), sub_resolution=flags)


def classical_side_opcount(N: int) -> OpCount:
    """The classical work of one exact-mode ``hybrid_wht`` on a length-N input.

    The tally is data-independent: exactly 7N (see ``hybrid_wht``).  N must be a power of
    two >= 2; the run's arrays, under 56N bytes, are charged to errors.require_bytes first.
    """
    N, _ = _require_length(N)
    require_bytes(56 * N, f"classical side op count at N={N}")
    count = OpCount()
    hybrid_wht(np.zeros(N), HybridConfig(), count)
    return count
