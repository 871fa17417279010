"""Picard iteration for first-order ODE systems over the Walsh basis.

Each sweep rewrites the integral form of the system

    x_i = q_i + integral_0^t f_i(x_1, ..., x_m, tau) dtau

with the right-hand sides evaluated pointwise at the grid midpoints
against the *previous* sweep's iterates for every variable (Jacobi-style
simultaneous update), and the integral taken through the Walsh-domain
integration matrix.  Iteration stops after ``n_max`` sweeps or when the
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
from .errors import DivergenceError
from .hybrid import HybridConfig
from .quantum import DEFAULT_SEED
from .walsh import SampledFunction

_BACKENDS = ("classical", "hybrid-exact", "hybrid-sampled")

#: Any iterate sample exceeding this magnitude aborts the solve.
MAGNITUDE_CAP = 1e12


@dataclass
class IVProblem:
    """System dx_i/dt = f_i(x_1..x_m, t) with x_i(t_lo) = initial[i].

    Each evaluator receives the m state values at one grid point plus
    the time, and returns one derivative value.
    """

    m: int
    rhs: Sequence[Callable[[np.ndarray, float], float]]
    initial: Sequence[float]
    domain: tuple[float, float] = (0.0, 1.0)
    n: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one dependent variable, got m={self.m}")
        if len(self.rhs) != self.m or len(self.initial) != self.m:
            raise ValueError(
                f"rhs and initial must both have length m={self.m}, "
                f"got {len(self.rhs)} and {len(self.initial)}"
            )
        if self.n < 1:
            raise ValueError(f"resolution exponent must be >= 1, got {self.n}")


@dataclass
class SolverConfig:
    n_max: int
    tol: float = 1e-12
    backend: str = "classical"
    epsilon: float | None = None
    shots: int | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.tol < 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")


@dataclass
class SolutionTrace:
    """Per-sweep snapshots of every variable's sample vector."""

    snapshots: list[list[np.ndarray]] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    final_residual: float = math.inf


def _integration_backend(config: SolverConfig) -> tuple[str, HybridConfig | None]:
    if config.backend == "classical":
        return "classical", None
    mode = "exact" if config.backend == "hybrid-exact" else "sampled"
    return "hybrid", HybridConfig(
        epsilon=config.epsilon, mode=mode, shots=config.shots, seed=config.seed
    )


def picard_solve(
    problem: IVProblem, config: SolverConfig
) -> tuple[list[SampledFunction], SolutionTrace]:
    """Run Picard sweeps; returns the final iterates and the full trace."""
    N = 1 << problem.n
    lo, hi = problem.domain
    t = lo + (hi - lo) * (2.0 * np.arange(N) + 1.0) / (2.0 * N)
    backend, hybrid_cfg = _integration_backend(config)

    initial = [float(q) for q in problem.initial]
    xs = [np.full(N, q) for q in initial]
    trace = SolutionTrace()

    for sweep in range(config.n_max):
        state = np.vstack(xs)
        derivs = []
        for f_i in problem.rhs:
            vals = np.empty(N)
            for s in range(N):
                try:
                    vals[s] = f_i(state[:, s], t[s])
                except ArithmeticError as exc:
                    raise DivergenceError(
                        f"right-hand side failed at t={t[s]}: {exc}", trace
                    ) from exc
            if not np.all(np.isfinite(vals)):
                raise DivergenceError(
                    "right-hand side produced a non-finite value", trace
                )
            derivs.append(vals)

        # All integrals use the pre-sweep iterates; each draws its own seed.
        new_xs = []
        for i in range(problem.m):
            cfg = None if hybrid_cfg is None else hybrid_cfg.child(sweep, i)
            integral = integrate_sampled(
                SampledFunction(derivs[i], problem.domain), backend, cfg
            )
            new_xs.append(initial[i] + integral.values)

        residual = max(
            float(np.max(np.abs(new - old))) for new, old in zip(new_xs, xs)
        )
        xs = new_xs
        trace.snapshots.append([x.copy() for x in xs])
        trace.iterations_run += 1
        trace.final_residual = residual

        if any(np.max(np.abs(x)) > MAGNITUDE_CAP for x in xs):
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
        return IVProblem(m=1, rhs=[_riccati_rhs], initial=[-0.5], n=n)
    if name == "beer_system":
        return IVProblem(m=2, rhs=[_beer_rhs_1, _beer_rhs_2], initial=[0.0, 1.0], n=n)
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
