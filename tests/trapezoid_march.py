"""Oracle for a converged classical solve: the implicit trapezoidal march.

The classical Walsh integral of N midpoint samples f over a width w is
(cumsum(f) - f/2)*h with h = w/N.  So the fixed point of the Picard sweep
x = q + integral(f(x, t)) is, cell by cell,

    x_0 = q + (h/2)*f(x_0, t_0)
    x_k = x_{k-1} + (h/2)*(f(x_{k-1}, t_{k-1}) + f(x_k, t_k))

an implicit Euler half-step to the first midpoint, then the implicit
trapezoidal rule on the midpoint grid.  The march solves each cell's
equation by fixed-point iteration and uses no transform and no
operational matrix, so it checks the solver from outside.
"""

import numpy as np

#: Relative size of the last update at which a cell counts as solved.
CELL_TOL = 1e-16
#: Iterations per cell; a contraction of at most 1/2 reaches 1e-16 in about 55.
MAX_CELL_ITERATIONS = 200


def trapezoid_integral(f, width: float) -> np.ndarray:
    """The classical Walsh integral of midpoint samples f in O(N): (cumsum(f) - f/2)*h."""
    f = np.asarray(f, dtype=float)
    return (np.cumsum(f) - f / 2) * (width / f.size)


def _solve_cell(step, guess: np.ndarray) -> np.ndarray:
    """The fixed point of x = step(x) from guess, to a relative CELL_TOL, in bounded iterations."""
    x = guess
    for _ in range(MAX_CELL_ITERATIONS):
        new = step(x)
        update = np.max(np.abs(new - x))
        x = new
        if update <= CELL_TOL * np.max(np.abs(x)):
            return x
    # Rounding can leave the iteration cycling between neighbouring floats.
    if update > 4 * np.max(np.spacing(np.abs(x))):
        raise ArithmeticError(f"cell iteration did not converge: last update {update!r}")
    return x


def trapezoid_march(problem) -> np.ndarray:
    """The (m, N) discrete fixed point of a classical Picard solve of ``problem``.

    Each rhs is called in its one-point form: x of shape (m,), scalar t.
    """
    N = 1 << problem.n
    lo, hi = map(float, problem.domain)
    h = (hi - lo) / N
    t = lo + (hi - lo) * ((2.0 * np.arange(N) + 1.0) / (2.0 * N))

    def f(x, s):
        return np.array([float(rhs(x, s)) for rhs in problem.rhs])

    xs = np.empty((problem.m, N))
    q = np.array(problem.initial, dtype=float)
    xs[:, 0] = _solve_cell(lambda x: q + (h / 2) * f(x, t[0]), q)
    for k in range(1, N):
        base = xs[:, k - 1] + (h / 2) * f(xs[:, k - 1], t[k - 1])
        xs[:, k] = _solve_cell(lambda x: base + (h / 2) * f(x, t[k]), xs[:, k - 1])
    return xs
