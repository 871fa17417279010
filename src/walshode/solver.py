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
long intervals.  Every numeric failure of a solve raises DivergenceError
carrying the partial trace, and no numpy warning: an iterate past a
magnitude cap or not finite, or a hybrid integral whose norm overflows.
Before sweep k, its k kept snapshots plus state, derivatives and update,
(k + 3) float64 grids of m x N, are charged against the byte cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calculus import integrate_sampled
from .errors import DivergenceError, require_bytes
from .hybrid import HybridConfig, backend_config
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

    rhs: Sequence[Callable[[np.ndarray, float], float]]
    initial: Sequence[float]
    domain: tuple[float, float] = (0.0, 1.0)
    n: int = 2
    vectorized: bool = False

    @property
    def m(self) -> int:
        """The number of dependent variables: one per right-hand side."""
        return len(self.rhs)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one right-hand side")
        if len(self.initial) != self.m:
            raise ValueError(
                f"need one initial value per right-hand side (m={self.m}), "
                f"got {len(self.initial)}"
            )
        if not np.all(np.isfinite(self.initial)):
            raise ValueError(f"initial values must be finite, got {list(self.initial)}")
        _require_domain(self.domain)
        _require_qubits(self.n)


@dataclass(frozen=True)
class SolverConfig:
    """Sweep budget, stopping tolerance and backend.

    ``hybrid`` is derived by ``hybrid.backend_config``: None for classical,
    else the root HybridConfig, whose ``child(sweep, i)`` integrates x_i in that sweep.
    Frozen, so it always matches the other fields.  A setting the backend would ignore
    is refused, ``seed`` included; a sampled run without one uses ``quantum.DEFAULT_SEED``.
    """

    n_max: int
    tol: float = 1e-12
    backend: str = "classical"
    epsilon: float | None = None
    shots: int | None = None
    seed: int | None = None
    hybrid: HybridConfig | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.n_max, bool) or not hasattr(self.n_max, "__index__") or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        hybrid = backend_config(self.backend, self.epsilon, self.shots, self.seed)
        object.__setattr__(self, "hybrid", hybrid)


@dataclass
class SolutionTrace:
    """Per-sweep snapshots: each sweep's read-only (m, N) iterate."""

    snapshots: list[np.ndarray] = field(default_factory=list)
    converged: bool = False
    final_residual: float = math.inf

    @property
    def iterations_run(self) -> int:
        """Sweeps completed: one snapshot each."""
        return len(self.snapshots)


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
                if np.isfinite(derivs[i]).all():
                    continue
        derivs[i] = _rhs_at_each_sample(f_i, state, t, trace)
    return derivs


def picard_solve(
    problem: IVProblem, config: SolverConfig
) -> tuple[list[SampledFunction], SolutionTrace]:
    """Run Picard sweeps; returns the final iterates and the full trace."""
    N = 1 << problem.n

    def charge(kept: int) -> None:
        """The kept snapshots, plus three grids: state, derivatives and update."""
        require_bytes((kept + 3) * problem.m * N * 8,
                      f"picard_solve at n={problem.n}, m={problem.m}, sweep {kept}")

    charge(1)  # before the grid below is built
    t = midpoints(N, problem.domain)

    initial = np.array(problem.initial, dtype=float)
    xs = np.repeat(initial[:, None], N, axis=1)
    trace = SolutionTrace()

    for sweep in range(config.n_max):
        charge(sweep + 1)
        derivs = _rhs_values(problem, xs, t, trace)

        # All integrals use the pre-sweep iterates; each draws its own keyed stream.
        new_xs = np.empty_like(xs)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite iterate is refused below
            for i in range(problem.m):
                cfg = None if config.hybrid is None else config.hybrid.child(sweep, i)
                try:
                    integral = integrate_sampled(derivs[i], problem.domain, cfg)
                except ValueError as exc:  # derivs[i] is finite: the hybrid norm left float64 range
                    raise DivergenceError(f"the integral of x{i + 1} failed: {exc}", trace) from exc
                new_xs[i] = initial[i] + integral

        residual = float(abs(new_xs - xs).max())
        xs = new_xs
        xs.flags.writeable = False
        trace.snapshots.append(xs)
        trace.final_residual = residual

        peak = float(abs(xs).max())
        if not peak <= MAGNITUDE_CAP:  # also True for nan
            what = f"magnitude exceeded {MAGNITUDE_CAP:g}" if peak < math.inf else "is not finite"
            raise DivergenceError(f"iterate {what}", trace)
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
        return IVProblem(rhs=[_riccati_rhs], initial=[-0.5], n=n, vectorized=True)
    if name == "beer_system":
        return IVProblem(rhs=[_beer_rhs_1, _beer_rhs_2], initial=[0.0, 1.0], n=n, vectorized=True)
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
