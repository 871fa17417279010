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
        _require_key(key)  # the rest was checked when this config was built
        child = object.__new__(HybridConfig)
        child.__dict__.update(self.__dict__, spawn_key=self.spawn_key + key)
        return child


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
    """Intermediate quantities of one run, kept for inspection and tests; shots None if exact."""

    shift: float
    norm: float
    offset: float
    probabilities: np.ndarray
    output: np.ndarray
    shots: int | None = None

    @property
    def sub_resolution(self) -> np.ndarray | None:
        """Components below the noise scale norm/sqrt(shots), untrustworthy at that budget.

        None if exact; computed when read.  The scale is at least 2 sd: sd_k =
        norm*sqrt(1 - p_k)/(2*sqrt(shots)), the delta method on the multinomial counts."""
        if self.shots is None:
            return None
        return np.abs(self.output) < self.norm / math.sqrt(self.shots)


def sign_safe(v) -> bool:
    """True iff v[0] strictly exceeds the absolute sum of the remaining entries."""
    a = np.asarray(v, dtype=float)
    _require_vector(a)
    with np.errstate(over="ignore"):  # a sum past every float is inf, which v[0] cannot exceed
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
    N = 1 << _require_vector(a)

    with np.errstate(over="ignore", under="ignore"):  # a sum past float64 is refused below
        abs_a = np.abs(a)
        abs_sum = float(np.add.reduce(abs_a))
        rest_sq = float(np.add.reduce(np.multiply(abs_a, abs_a, out=abs_a)[1:]))  # |a|^2 = a^2
        if not abs_sum < math.inf:  # any nan or inf entry makes it so, as a finite overflow can
            _require_finite(a, "input")
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
        if cfg.shots is None:
            p = measure_exact(state)
        else:
            p = measure_sampled(state, cfg.shots, cfg.seed, cfg.spawn_key) / cfg.shots

        offset = (shift - a[0]) / math.sqrt(N)
        out = np.sqrt(p)
        np.subtract(np.multiply(out, norm, out=out), offset, out=out)  # norm * sqrt(p) - offset
    if count is not None:
        side = classical_side_opcount(N)
        count.additions += side.additions
        count.multiplications += side.multiplications + (0 if cfg.shots is None else N)
        count.square_roots += side.square_roots

    return out, HybridTrace(shift=shift, norm=norm, offset=offset, probabilities=p,
                            output=out.copy(), shots=cfg.shots)


def classical_side_opcount(N: int) -> OpCount:
    """The classical work of one exact-mode ``hybrid_wht`` on a length-N input.

    The tally is data-independent, so it is its closed form: 3N-1 additions, 3N
    multiplications and N+1 square roots, exactly 7N (see ``hybrid_wht``, which tallies
    it).  N must be a power of two >= 2; nothing is allocated.
    """
    N, _ = _require_length(N)
    return OpCount(3 * N - 1, 3 * N, N + 1)
