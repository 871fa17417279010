"""Picard iteration for first-order ODE systems over the Walsh basis.

Each sweep rewrites the integral form of the system

    x_i = q_i + integral_0^t f_i(x_1, ..., x_m, tau) dtau

with the right-hand sides evaluated at the grid midpoints against the *previous*
sweep's iterates for every variable (Jacobi-style simultaneous update), and the
integral taken through the Walsh-domain integration matrix.  ``_sweep`` is that one
step; ``picard_solve`` is the loop around it: check, charge, step, record, stop,
after ``n_max`` sweeps or when the largest componentwise update drops below ``tol``.
A converged classical solve is the implicit trapezoidal rule on the midpoint grid,
after an implicit half-step from t_lo to the first midpoint, because the classical
integral is (cumsum(f) - f/2) * h (see ``calculus``; on operational integration,
G. P. Rao, Lecture Notes in Control and Inf. Sci. 55, 1983).

Picard iteration is not guaranteed to converge for stiff problems or long intervals.
Every numeric failure of a solve raises DivergenceError, and no numpy warning: an
iterate past a magnitude cap or not finite, a right-hand side that fails or is not
finite, or an integral that overflows float64; the loop's one ``except`` attaches the
partial trace to each.  Before sweep k, its k kept snapshots plus state, derivatives
and update, (k + 3) float64 grids of m x N, are charged against the byte cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calculus import integrate_sampled
from .errors import DivergenceError, require_bytes
from .hybrid import HybridConfig, backend_config
from .walsh import (SampledFunction, _require_domain, _require_finite, _require_int,
                    _require_qubits, _require_real, midpoints)

_BACKENDS = ("classical", "hybrid-exact", "hybrid-sampled")

#: Any iterate sample exceeding this magnitude aborts the solve.
MAGNITUDE_CAP = 1e12


@dataclass
class IVProblem:
    """System dx_i/dt = f_i(x_1..x_m, t) with x_i(t_lo) = initial[i]: mutable, and
    checked by one rule when built and again when ``picard_solve`` reads it.

    Each rhs is a grid callable, written in numpy: it is called once per
    sweep with the whole grid, x of shape (m, N) and t of shape (N,), under
    np.errstate(divide="raise", over="raise", invalid="raise"), and returns N
    values (a scalar is broadcast).  When that call fails or yields a
    non-finite value, the solver calls it once per point, x of shape (m,)
    and a scalar t, under the same errstate, to name the first failing point.
    """

    rhs: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]]
    initial: Sequence[float]
    domain: tuple[float, float] = (0.0, 1.0)
    n: int = 2

    @property
    def m(self) -> int:
        """The number of dependent variables: one per right-hand side."""
        return len(self.rhs)

    def __post_init__(self):
        _require_problem(self)


def _require_problem(problem: IVProblem) -> int:
    """Return N = 2^n, or raise unless the problem's fields, as they stand, form a system."""
    if problem.m < 1:
        raise ValueError("need at least one right-hand side")
    for i, f_i in enumerate(problem.rhs):
        if not callable(f_i):
            raise ValueError(f"rhs[{i}] must be callable, got {f_i!r}")
    if len(problem.initial) != problem.m:
        raise ValueError(f"need one initial value per right-hand side (m={problem.m}), "
                         f"got {len(problem.initial)}")
    _require_finite(np.asarray(problem.initial, dtype=float), "initial values")
    _require_domain(problem.domain)
    return _require_qubits(problem.n)


@dataclass(frozen=True)
class SolverConfig:
    """Sweep budget, stopping tolerance and backend.

    ``hybrid`` is derived by ``hybrid.backend_config``: None for classical,
    else the root HybridConfig, whose ``child(sweep, i)`` integrates x_i in that sweep.
    Frozen, so it always matches the other fields.  A setting the backend would ignore
    is refused; hybrid-sampled requires ``shots`` and ``seed``.  By ``walsh``'s rules,
    ``n_max`` is an integer >= 1 and ``tol`` a real number >= 0 and finite.
    """

    n_max: int
    tol: float = 1e-12
    backend: str = "classical"
    epsilon: float | None = None
    shots: int | None = None
    seed: int | None = None
    hybrid: HybridConfig | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_int(self.n_max, "n_max", 1)
        _require_real(self.tol, "tol", 0)
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


def _sweep(problem: IVProblem, config: SolverConfig, sweep: int, initial, xs, t) -> tuple:
    """Sweep ``sweep`` from the iterate ``xs``: the new read-only iterate, its residual (largest
    |update|) and its largest magnitude.  See IVProblem for a failing right-hand side."""
    derivs = np.empty(xs.shape)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for i, f_i in enumerate(problem.rhs):
            try:
                derivs[i] = f_i(xs, t)
                if np.isfinite(derivs[i]).all():
                    continue
            except ArithmeticError:
                pass
            for s in range(t.size):
                try:
                    derivs[i, s] = f_i(xs[:, s], t[s])
                except ArithmeticError as exc:
                    raise DivergenceError(f"right-hand side failed at t={t[s]}: {exc}") from exc
            if not np.isfinite(derivs[i]).all():
                raise DivergenceError("right-hand side produced a non-finite value")

    # All integrals use the pre-sweep iterates; each draws its own keyed stream.
    new_xs = np.empty_like(xs)
    with np.errstate(over="ignore"):  # an iterate past float64's range fails the magnitude cap
        for i in range(problem.m):
            cfg = None if config.hybrid is None else config.hybrid.child(sweep, i)
            try:
                integral = integrate_sampled(derivs[i], problem.domain, cfg)
            except ArithmeticError as exc:  # by the overflow rule, on every backend
                raise DivergenceError(f"the integral of x{i + 1} failed: {exc}") from exc
            np.add(initial[i], integral, out=new_xs[i])

    scratch = derivs  # spent once integrated: it takes |update|, then |iterate|
    residual = float(np.abs(np.subtract(new_xs, xs, out=scratch), out=scratch).max())
    new_xs.flags.writeable = False
    return new_xs, residual, float(np.abs(new_xs, out=scratch).max())


def picard_solve(
    problem: IVProblem, config: SolverConfig
) -> tuple[list[SampledFunction], SolutionTrace]:
    """Check the problem as it stands, then run Picard sweeps: the final iterates and the trace."""
    N = _require_problem(problem)  # a Python int: 1 << np.uint8(8) would wrap to 0

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
        try:
            xs, trace.final_residual, peak = _sweep(problem, config, sweep, initial, xs, t)
            trace.snapshots.append(xs)
            if not peak <= MAGNITUDE_CAP:  # also True for nan
                what = (f"magnitude exceeded {MAGNITUDE_CAP:g}" if peak < math.inf
                        else "is not finite")
                raise DivergenceError(f"iterate {what}")
        except DivergenceError as exc:  # the one place a failed solve gets its partial trace
            if exc.trace is None:  # one from a solve inside a right-hand side keeps its own
                exc.trace = trace
            raise
        if trace.final_residual < config.tol:
            trace.converged = True
            break

    return [SampledFunction(x, problem.domain) for x in xs], trace


def _riccati_rhs(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return x[0] * x[0] + x[0] + 1.0


def _beer_rhs_1(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return x[1]


def _beer_rhs_2(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return -(3.0 * x[0] * x[1] + x[0] ** 3)


#: name -> (right-hand sides, initial values at t = 0, exact solution at an array of times t).
_BUILTINS = {
    "riccati": ((_riccati_rhs,), (-0.5,), lambda t: np.array(
        [0.5 * (math.sqrt(3.0) * np.tan(math.sqrt(3.0) * t / 2.0) - 1.0)])),
    "beer_system": ((_beer_rhs_1, _beer_rhs_2), (0.0, 1.0), lambda t: np.array(
        [2.0 * t / (t * t + 2.0), (4.0 - 2.0 * t * t) / (t * t + 2.0) ** 2])),
}


def _builtin(name: str):
    """The table row of a builtin problem, or ValueError."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin problem {name!r}")
    return _BUILTINS[name]


def builtin_problem(name: str, n: int = 2) -> IVProblem:
    """Ready-made demonstration problems with known analytic solutions."""
    rhs, initial, _ = _builtin(name)
    return IVProblem(rhs=list(rhs), initial=list(initial), n=n)


def analytic_reference(name: str, t) -> np.ndarray:
    """Exact solution values for the builtin problems (for error reporting)."""
    _, _, exact = _builtin(name)
    return exact(np.asarray(t, dtype=float))
