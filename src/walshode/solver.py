"""Picard iteration for first-order ODE systems over the Walsh basis.

Each sweep rewrites the integral form of the system

    x_i = q_i + integral_0^t f_i(x_1, ..., x_m, tau) dtau

with the right-hand sides evaluated at the grid midpoints against the
*previous* sweep's iterates for every variable (Jacobi-style
simultaneous update), and the integral taken through the Walsh-domain
integration matrix.  A vectorized right-hand side is one numpy call over
the whole grid per sweep; a failing or non-finite one is re-run point by
point, so errors name the first bad sample either way.  Iteration stops after ``n_max`` sweeps or when the
largest componentwise update drops below ``tol``.

Picard iteration is not guaranteed to converge for stiff problems or
long intervals; iterates that blow past a magnitude cap raise
DivergenceError carrying the partial trace instead of looping silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calculus import integrate_sampled
from .errors import DivergenceError, require_bytes
from .hybrid import HybridConfig
from .quantum import DEFAULT_SEED
from .walsh import SampledFunction, _require_domain, _require_qubits, midpoints

_BACKENDS = ("classical", "hybrid-exact", "hybrid-sampled")

#: Any iterate sample exceeding this magnitude aborts the solve.
MAGNITUDE_CAP = 1e12


@dataclass
class IVProblem:
    """System dx_i/dt = f_i(x_1..x_m, t) with x_i(t_lo) = initial[i].

    Each rhs takes one of two forms.  By default it is called once per
    grid point with the m state values (shape (m,)) and the time, and
    returns one derivative value.  With ``vectorized=True`` it is called
    once per sweep with the whole grid, x of shape (m, N) and t of shape
    (N,), and returns N values (a scalar is broadcast); a vectorized rhs
    must also accept the one-point form, which the solver uses to name the
    first failing point when a grid call fails or yields non-finite values.
    """

    m: int
    rhs: Sequence[Callable[[np.ndarray, float], float]]
    initial: Sequence[float]
    domain: tuple[float, float] = (0.0, 1.0)
    n: int = 2
    vectorized: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one dependent variable, got m={self.m}")
        if len(self.rhs) != self.m or len(self.initial) != self.m:
            raise ValueError(
                f"rhs and initial must both have length m={self.m}, "
                f"got {len(self.rhs)} and {len(self.initial)}"
            )
        if not np.all(np.isfinite(self.initial)):
            raise ValueError(f"initial values must be finite, got {list(self.initial)}")
        _require_domain(self.domain)
        _require_qubits(self.n)


@dataclass(frozen=True)
class SolverConfig:
    """Sweep budget, stopping tolerance and backend.

    ``hybrid`` is derived: None for classical, else every integral's
    HybridConfig.  Frozen, so it always matches the other fields.
    """

    n_max: int
    tol: float = 1e-12
    backend: str = "classical"
    epsilon: float | None = None
    shots: int | None = None
    seed: int = DEFAULT_SEED
    hybrid: HybridConfig | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        mode = self.backend.removeprefix("hybrid-")
        hybrid = None if mode == "classical" else HybridConfig(
            epsilon=self.epsilon, mode=mode, shots=self.shots, seed=self.seed)
        object.__setattr__(self, "hybrid", hybrid)


@dataclass
class SolutionTrace:
    """Per-sweep snapshots of every variable's sample vector."""

    snapshots: list[list[np.ndarray]] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    final_residual: float = math.inf


def _rhs_at_each_sample(f_i, state, t, trace) -> np.ndarray:
    """One call per grid point; names the first point that fails."""
    vals = np.empty(t.size)
    for s in range(t.size):
        try:
            vals[s] = f_i(state[:, s], t[s])
        except ArithmeticError as exc:
            raise DivergenceError(
                f"right-hand side failed at t={t[s]}: {exc}", trace
            ) from exc
    if not np.all(np.isfinite(vals)):
        raise DivergenceError("right-hand side produced a non-finite value", trace)
    return vals


def _rhs_values(problem: IVProblem, state, t, trace) -> np.ndarray:
    """Every right-hand side on the whole grid, shape (m, N)."""
    derivs = np.empty(state.shape)
    for i, f_i in enumerate(problem.rhs):
        if problem.vectorized:
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    derivs[i] = f_i(state, t)
            except ArithmeticError:
                pass
            else:
                if np.all(np.isfinite(derivs[i])):
                    continue
        derivs[i] = _rhs_at_each_sample(f_i, state, t, trace)
    return derivs


def picard_solve(
    problem: IVProblem, config: SolverConfig
) -> tuple[list[SampledFunction], SolutionTrace]:
    """Run Picard sweeps; returns the final iterates and the full trace."""
    N = 1 << problem.n
    # The trace keeps n_max grids; state, derivatives and update add three.
    require_bytes(
        (config.n_max + 3) * problem.m * N * 8,
        f"picard_solve at n={problem.n}, m={problem.m}, n_max={config.n_max}",
    )
    t = midpoints(N, problem.domain)

    initial = np.array(problem.initial, dtype=float)
    xs = np.repeat(initial[:, None], N, axis=1)
    trace = SolutionTrace()

    for sweep in range(config.n_max):
        derivs = _rhs_values(problem, xs, t, trace)

        # All integrals use the pre-sweep iterates; each draws its own seed.
        new_xs = np.empty_like(xs)
        for i in range(problem.m):
            cfg = None if config.hybrid is None else config.hybrid.child(sweep, i)
            integral = integrate_sampled(SampledFunction(derivs[i], problem.domain), cfg)
            new_xs[i] = initial[i] + integral.values

        residual = float(np.max(np.abs(new_xs - xs)))
        xs = new_xs
        trace.snapshots.append(list(xs))
        trace.iterations_run += 1
        trace.final_residual = residual

        if np.max(np.abs(xs)) > MAGNITUDE_CAP:
            raise DivergenceError(
                f"iterate magnitude exceeded {MAGNITUDE_CAP:g}", trace
            )
        if residual < config.tol:
            trace.converged = True
            break

    return [SampledFunction(x, problem.domain) for x in xs], trace


def _riccati_rhs(x: np.ndarray, t: float) -> float:
    return x[0] * x[0] + x[0] + 1.0


def _beer_rhs_1(x: np.ndarray, t: float) -> float:
    return x[1]


def _beer_rhs_2(x: np.ndarray, t: float) -> float:
    return -(3.0 * x[0] * x[1] + x[0] ** 3)


def builtin_problem(name: str, n: int = 2) -> IVProblem:
    """Ready-made demonstration problems with known analytic solutions."""
    if name == "riccati":
        return IVProblem(m=1, rhs=[_riccati_rhs], initial=[-0.5], n=n, vectorized=True)
    if name == "beer_system":
        return IVProblem(m=2, rhs=[_beer_rhs_1, _beer_rhs_2], initial=[0.0, 1.0], n=n,
                         vectorized=True)
    raise ValueError(f"unknown builtin problem {name!r}")


def analytic_reference(name: str, t) -> np.ndarray:
    """Exact solution values for the builtin problems (for error reporting)."""
    t = np.asarray(t, dtype=float)
    if name == "riccati":
        root3 = math.sqrt(3.0)
        return np.array([0.5 * (root3 * np.tan(root3 * t / 2.0) - 1.0)])
    if name == "beer_system":
        denom = t * t + 2.0
        return np.array([2.0 * t / denom, (4.0 - 2.0 * t * t) / denom**2])
    raise ValueError(f"unknown builtin problem {name!r}")
