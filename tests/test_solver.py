"""Picard sweeps against published iterates and analytic solutions."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

import walshode.errors
import walshode.hybrid
from walshode import (
    DivergenceError,
    HybridConfig,
    IVProblem,
    ResourceLimitError,
    SolverConfig,
    analytic_reference,
    builtin_problem,
    fwht,
    integration_matrix,
    measure_sampled,
    picard_solve,
    time_integration_operator,
)
from walshode.expr import evaluate, parse

from trapezoid_march import trapezoid_march


def solve(name, n, sweeps, **kwargs):
    problem = builtin_problem(name, n=n)
    config = SolverConfig(n_max=sweeps, tol=0.0, **kwargs)
    return picard_solve(problem, config)


# ---------------------------------------------------------------------------
# builtin problems


def test_builtin_riccati_shape():
    p = builtin_problem("riccati")
    assert p.m == 1
    assert p.initial == [-0.5]
    assert p.rhs[0](np.array([-0.5]), 0.0) == 0.75


def test_builtin_beer_shape():
    p = builtin_problem("beer_system")
    assert p.m == 2
    assert p.initial == [0.0, 1.0]


def test_builtin_beer_rhs_pointwise_values():
    p = builtin_problem("beer_system")
    x1 = np.array([0.125, 0.375, 0.625, 0.875])
    expected = [-0.376953125, -1.177734375, -2.119140625, -3.294921875]
    got = [p.rhs[1](np.array([x, 1.0]), 0.0) for x in x1]
    assert np.array_equal(got, expected)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_problem("lorenz")


def test_analytic_reference_values():
    assert analytic_reference("riccati", 0.0)[0] == -0.5
    assert np.allclose(analytic_reference("beer_system", 0.0), [0.0, 1.0], atol=0)
    x1, x2 = analytic_reference("beer_system", 1.0)
    assert abs(x1 - 2 / 3) < 1e-15
    assert abs(x2 - 2 / 9) < 1e-15
    with pytest.raises(ValueError):
        analytic_reference("lorenz", 0.0)


# ---------------------------------------------------------------------------
# published iterates


def test_beer_first_sweep_keeps_x2_flat():
    # Simultaneous (Jacobi) updates: x2's derivative is evaluated at the
    # pre-sweep x1 = 0, so x2 stays identically 1 after sweep one.
    solution, _ = solve("beer_system", 2, 1)
    assert np.array_equal(solution[0].values, [0.125, 0.375, 0.625, 0.875])
    assert np.array_equal(solution[1].values, [1.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# solver mechanics


def test_constant_problem_is_fixed_point():
    problem = IVProblem(rhs=[lambda x, t: 0.0], initial=[1.5], n=3)
    solution, trace = picard_solve(problem, SolverConfig(n_max=5, tol=0.0))
    assert np.all(solution[0].values == 1.5)
    assert trace.iterations_run == 5
    for snapshot in trace.snapshots:
        assert np.all(snapshot[0] == 1.5)


def test_time_only_rhs_single_sweep_is_exact_quadrature():
    # With an x-independent right-hand side, one sweep returns
    # q + the midpoint running integral of g, whatever the initial iterate.
    g = lambda x, t: np.cos(3.0 * t)
    problem = IVProblem(rhs=[g], initial=[2.0], n=3)
    solution, _ = picard_solve(problem, SolverConfig(n_max=1))
    N = 8
    mids = (2 * np.arange(N) + 1) / (2 * N)
    expected = 2.0 + time_integration_operator(N) @ np.cos(3.0 * mids)
    assert np.max(np.abs(solution[0].values - expected)) < 1e-14


def test_tolerance_stops_early_and_flags_convergence():
    problem = IVProblem(rhs=[lambda x, t: 0.0], initial=[0.25], n=2)
    solution, trace = picard_solve(problem, SolverConfig(n_max=50, tol=1e-9))
    assert trace.converged
    assert trace.iterations_run < 50
    assert trace.final_residual < 1e-9
    assert len(trace.snapshots) == trace.iterations_run


def test_riccati_converges_under_default_tolerance():
    problem = builtin_problem("riccati", n=2)
    solution, trace = picard_solve(problem, SolverConfig(n_max=200))
    assert trace.converged
    assert trace.final_residual < 1e-12


def test_trace_snapshot_count_matches_iterations():
    _, trace = solve("beer_system", 2, 7)
    assert trace.iterations_run == 7
    assert len(trace.snapshots) == 7
    assert not trace.converged
    assert np.array_equal(trace.snapshots[0][0], [0.125, 0.375, 0.625, 0.875])


def test_snapshots_are_the_read_only_iterates():
    solution, trace = solve("beer_system", 3, 4)
    assert np.array(trace.snapshots).shape == (4, 2, 8)
    for snapshot in trace.snapshots:
        assert not snapshot.flags.writeable
        with pytest.raises(ValueError):
            snapshot[0, 0] = 1.0
    assert np.array_equal(trace.snapshots[-1], [x.values for x in solution])


def test_backend_determinism_classical_vs_hybrid_exact():
    a, trace_a = solve("beer_system", 2, 12)
    b, trace_b = solve("beer_system", 2, 12, backend="hybrid-exact")
    for xa, xb in zip(a, b):
        assert np.max(np.abs(xa.values - xb.values)) < 1e-10
    for snap_a, snap_b in zip(trace_a.snapshots, trace_b.snapshots):
        for xa, xb in zip(snap_a, snap_b):
            assert np.max(np.abs(xa - xb)) < 1e-10


def test_hybrid_sampled_backend_runs():
    problem = builtin_problem("riccati", n=2)
    config = SolverConfig(n_max=3, backend="hybrid-sampled", shots=200000, seed=7)
    solution, trace = picard_solve(problem, config)
    reference, _ = solve("riccati", 2, 3)
    assert trace.iterations_run == 3
    assert np.max(np.abs(solution[0].values - reference[0].values)) < 0.05


def test_hybrid_sampled_same_seed_replays_bit_for_bit():
    runs = [solve("beer_system", 3, 3, backend="hybrid-sampled", shots=5000, seed=11)
            for _ in range(2)]
    (_, trace_a), (_, trace_b) = runs
    assert len(trace_a.snapshots) == 3
    for snap_a, snap_b in zip(trace_a.snapshots, trace_b.snapshots):
        for xa, xb in zip(snap_a, snap_b):
            assert np.array_equal(xa, xb)


def test_hybrid_sampled_transforms_draw_distinct_seeds(monkeypatch):
    draws = []

    def recording(state, shots, seed, spawn_key=()):
        counts = measure_sampled(state, shots, seed, spawn_key)
        draws.append((seed, spawn_key, state**2, counts))
        return counts

    monkeypatch.setattr(walshode.hybrid, "measure_sampled", recording)
    solve("beer_system", 2, 2, backend="hybrid-sampled", shots=1000, seed=3)
    # 2 sweeps x 2 variables x (forward, inverse), each keyed (sweep, i, j) under the root seed.
    streams = [(seed, key) for seed, key, _, _ in draws]
    assert streams == [(3, (sweep, i, j)) for sweep in range(2) for i in range(2) for j in range(2)]
    assert len(set(streams)) == 8
    # A recorded draw replays from its stream alone.
    seed, key, p, counts = draws[5]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    assert np.array_equal(counts, rng.multinomial(1000, p / p.sum()))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_max=0)
    with pytest.raises(ValueError):
        SolverConfig(n_max=1, tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(n_max=1, backend="adams")
    with pytest.raises(ValueError):
        IVProblem(rhs=[lambda x, t: 0.0], initial=[0.0, 1.0])


def test_variable_count_is_the_number_of_right_hand_sides():
    problem = IVProblem(rhs=[lambda x, t: 0.0] * 3, initial=[0.0, 1.0, 2.0])
    assert problem.m == len(problem.rhs) == 3
    with pytest.raises(TypeError):
        IVProblem(m=3, rhs=problem.rhs, initial=problem.initial)


def test_problem_without_right_hand_sides_is_refused():
    with pytest.raises(ValueError, match="need at least one right-hand side"):
        IVProblem(rhs=[], initial=[])


def test_sampled_config_without_shots_fails_at_construction():
    with pytest.raises(ValueError, match="shot count"):
        SolverConfig(n_max=1, backend="hybrid-sampled")


def test_exact_backend_config_refuses_shots():
    with pytest.raises(ValueError, match="shots does not apply to backend hybrid-exact"):
        SolverConfig(n_max=1, backend="hybrid-exact", shots=5)


@pytest.mark.parametrize("setting", [{"epsilon": 0.5}, {"shots": 5}, {"seed": 5}])
def test_classical_backend_config_refuses_hybrid_settings(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=f"{name} does not apply to backend classical"):
        SolverConfig(n_max=1, **setting)


def test_config_derives_the_hybrid_config_once():
    assert SolverConfig(n_max=1).hybrid is None
    exact = SolverConfig(n_max=1, backend="hybrid-exact", epsilon=0.25)
    assert exact.hybrid == HybridConfig(epsilon=0.25)
    sampled = SolverConfig(n_max=1, backend="hybrid-sampled", shots=100, seed=4)
    assert sampled.hybrid == HybridConfig(shots=100, seed=4)
    # Derived: not a constructor argument, not in repr, not in equality.
    with pytest.raises(TypeError):
        SolverConfig(n_max=1, hybrid=None)
    assert "hybrid=" not in repr(sampled)
    assert sampled == SolverConfig(n_max=1, backend="hybrid-sampled", shots=100, seed=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sampled.backend = "classical"
    assert dataclasses.replace(
        sampled, backend="classical", shots=None, seed=None).hybrid is None


def test_nonunit_domain_solution():
    # dx/dt = x on [0, 0.5], x(0) = 1 -> exp(t) at the midpoints.
    problem = IVProblem(
        rhs=[lambda x, t: x[0]], initial=[1.0], domain=(0.0, 0.5), n=4
    )
    solution, trace = picard_solve(problem, SolverConfig(n_max=60))
    t = solution[0].midpoints
    assert trace.converged
    # Midpoint discretization error at this resolution is ~2.6e-4.
    assert np.max(np.abs(solution[0].values - np.exp(t))) < 5e-4


# ---------------------------------------------------------------------------
# whole-grid right-hand sides


def expression_problem(sources, initial, n):
    """The expressions as grid callables, as ``solve --rhs`` builds them."""
    rhs = [functools.partial(evaluate, parse(src, len(sources))) for src in sources]
    return IVProblem(rhs=rhs, initial=initial, n=n)


def test_grid_rhs_scalar_result_is_broadcast():
    _, trace = picard_solve(
        IVProblem(rhs=[lambda x, t: 0.75], initial=[0.0], n=2),
        SolverConfig(n_max=1),
    )
    assert np.array_equal(trace.snapshots[0][0], 0.75 * np.array([1, 3, 5, 7]) / 8)


def test_grid_rhs_failure_reruns_only_that_variable():
    calls = []

    def x1(x, t):
        calls.append(np.ndim(t))
        return x[0]

    def failing(x, t):
        if np.ndim(t):
            return np.log(x[0] - x[0])  # -inf: a divide flag on the grid
        return 1.0

    problem = IVProblem(rhs=[x1, failing], initial=[1.0, 0.0], n=2)
    _, trace = picard_solve(problem, SolverConfig(n_max=1))
    assert calls == [1]
    assert np.array_equal(trace.snapshots[0][1], [0.125, 0.375, 0.625, 0.875])


def test_solve_grid_refused_before_allocation():
    problem = builtin_problem("riccati", n=40)
    with pytest.raises(ResourceLimitError) as info:
        picard_solve(problem, SolverConfig(n_max=10))
    assert "picard_solve" in str(info.value)


def test_solve_is_charged_for_the_sweeps_it_keeps(monkeypatch):
    # n=4, m=1: 128 bytes a grid.  A cap of 6 grids holds three kept sweeps
    # plus state, derivatives and update, so the fourth sweep is refused.
    monkeypatch.setattr(walshode.errors, "MAX_ALLOC_BYTES", 6 * 128)
    calls = []

    def rhs(x, t):
        calls.append(t.size)
        return 1.0 + x[0]

    problem = IVProblem(rhs=[rhs], initial=[0.0], n=4)
    _, trace = picard_solve(problem, SolverConfig(n_max=3, tol=0.0))
    assert trace.iterations_run == 3
    calls.clear()
    with pytest.raises(ResourceLimitError, match="sweep 4 needs 896 bytes"):
        picard_solve(problem, SolverConfig(n_max=10, tol=0.0))
    assert calls == [16, 16, 16]


# ---------------------------------------------------------------------------
# divergence


def _problem(rhs, initial=(0.0,), **fields):
    return IVProblem(rhs=rhs, initial=list(initial), **fields)


_FAILED_AT = "right-hand side failed at t="
_NON_FINITE = "right-hand side produced a non-finite value"
_INTEGRAL = "the integral of x{} failed: integrate_sampled overflows float64"


def _diverges_once_moved(x, t):
    """dx/dt = 1 from x = 0, until a right-hand side of its own stops the solve, without a trace."""
    if np.any(x[0] != 0.0):
        raise DivergenceError("stopped by the right-hand side")
    return np.ones_like(t)

#: Every way a solve diverges, in its first sweep and in a later one: (id, problem, backend,
#: message, sweeps completed).  A right-hand side raises, where the point-by-point rerun names
#: the first failing point, or turns non-finite; an expression, as ``solve --rhs`` builds it,
#: reports as a numpy callable does.  An integral overflows, by the overflow rule on every
#: backend.  The iterate passes the magnitude cap (dx/dt = x^2 from 2 blows up inside [0, 1])
#: or float64.  A DivergenceError from inside a right-hand side gets the outer partial trace
#: unless it carries its own.
DIVERGENCES = [
    ("rhs-raises", _problem([lambda x, t: 1.0 / x[0]]), "classical",
     _FAILED_AT + "0.125: divide by zero encountered in scalar divide", 0),
    ("rhs-raises-in-sweep-2", _problem([lambda x, t: np.sqrt(1.0 - x[0])], domain=(0.0, 4.0)),
     "classical", _FAILED_AT + "1.5: invalid value encountered in sqrt", 1),
    ("expr-1/x1", expression_problem(["1/x1"], [0.0], 2), "classical",
     _FAILED_AT + "0.125: 1.0 / 0.0 is undefined", 0),
    ("expr-log(x1)", expression_problem(["log(x1)"], [0.0], 2), "classical",
     _FAILED_AT + "0.125: log(0.0) is undefined", 0),
    ("expr-sqrt(x1-1)", expression_problem(["sqrt(x1-1)"], [0.0], 2), "classical",
     _FAILED_AT + "0.125: sqrt(-1.0) is undefined", 0),
    ("rhs-non-finite", _problem([lambda x, t: np.where(t > 0.5, np.nan, 1.0)]), "classical",
     _NON_FINITE, 0),
    ("rhs-non-finite-in-sweep-2", _problem([lambda x, t: np.where(x[0] > 0.5, np.nan, 1.0)]),
     "classical", _NON_FINITE, 1),
    ("expr-x1*x1*x1", expression_problem(["x1*x1*x1"], [1e200], 2), "classical", _NON_FINITE, 0),
    # 16 finite samples of e^709.7 sum past float64.
    ("integral-classical", _problem([lambda x, t: math.exp(709.7)], n=4), "classical",
     _INTEGRAL.format(1), 0),
    ("integral-hybrid-exact", _problem([lambda x, t: math.exp(709.7)], n=4), "hybrid-exact",
     "the integral of x1 failed: the shifted vector's squared norm overflows float64 "
     "(shift inf)", 0),
    ("integral-of-x2-in-sweep-2", _problem(
        [lambda x, t: 1.0, lambda x, t: np.where(x[0] > 0.0, 1.7e308, 1.0)], (0.0, 0.0), n=4),
     "classical", _INTEGRAL.format(2), 1),
    ("magnitude-cap", _problem([lambda x, t: x[0] ** 2], (2.0,)), "classical",
     "iterate magnitude exceeded 1e+12", 7),
    ("iterate-not-finite", _problem([lambda x, t: 5e307], (1.7e308,), n=1), "classical",
     "iterate is not finite", 1),
    ("rhs-raises-divergence-in-sweep-2", _problem([_diverges_once_moved]), "classical",
     "stopped by the right-hand side", 1),
    # A solve inside a right-hand side that diverges keeps its own trace, not the outer one.
    ("rhs-solve-diverges", _problem([lambda x, t: picard_solve(
        _problem([lambda x, t: x[0] ** 2], (2.0,)), SolverConfig(n_max=100, tol=0.0))]),
     "classical", "iterate magnitude exceeded 1e+12", 7),
]


@pytest.mark.parametrize("problem, backend, message, sweeps",
                         [row[1:] for row in DIVERGENCES], ids=[row[0] for row in DIVERGENCES])
def test_a_divergence_carries_the_sweeps_before_it(problem, backend, message, sweeps):
    # No numpy warning either: under warnings as errors, one would escape as itself.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            picard_solve(problem, SolverConfig(n_max=100, tol=0.0, backend=backend))
    assert str(info.value) == message
    assert info.value.trace.iterations_run == sweeps
    assert len(info.value.trace.snapshots) == sweeps


# ---------------------------------------------------------------------------
# the converged classical solve against the trapezoidal march


MARCH_PROBLEMS = {
    "riccati": lambda n: builtin_problem("riccati", n=n),
    "beer_system": lambda n: builtin_problem("beer_system", n=n),
    "expression": lambda n: expression_problem(["x2", "-x1", "x1*x2"], [0.0, 1.0, 0.0], n),
}


@pytest.mark.parametrize("name", MARCH_PROBLEMS)
def test_converged_classical_solve_is_the_trapezoidal_march(name):
    for n in range(2, 11):
        problem = MARCH_PROBLEMS[name](n)
        solution, trace = picard_solve(problem, SolverConfig(n_max=100, tol=1e-15))
        assert trace.converged, (name, n)
        got = np.array([sf.values for sf in solution])
        assert np.max(np.abs(got - trapezoid_march(problem))) <= 1e-13, (name, n)


@pytest.mark.parametrize("name", ["riccati", "beer_system"])
def test_converged_hybrid_exact_solve_is_the_trapezoidal_march(name):
    # A hybrid transform returns norm*sqrt(p_k) - offset, and its norm is about
    # the l1 norm of its input (the shift in slot 0 dominates), so each output
    # carries roundoff of order 2^-52 times that norm.  One integral,
    # w*WHT(I_N*WHT(f)), then errs by about 2^-52*w*(|f|_1 + |g|_1) at most,
    # g = I_N*WHT(f) the inverse transform's input; and a solve converged to
    # tol sits within about tol of its fixed point.  Measured: at most 0.18
    # of this bound (Beer's x2 at n=3, 1.8e-14 off), at most 0.03 from n=4 on.
    tol = 1e-13
    for n in range(2, 11):
        problem = MARCH_PROBLEMS[name](n)
        solution, trace = picard_solve(
            problem, SolverConfig(n_max=200, tol=tol, backend="hybrid-exact"))
        assert trace.converged, (name, n)
        march = trapezoid_march(problem)
        t = solution[0].midpoints
        width = problem.domain[1] - problem.domain[0]
        for i, rhs in enumerate(problem.rhs):
            f = rhs(march, t)
            g = integration_matrix(1 << n).apply(fwht(f))
            bound = tol + 2.0**-52 * width * (np.abs(f).sum() + np.abs(g).sum())
            assert np.max(np.abs(solution[i].values - march[i])) <= bound, (name, n, i)


# ---------------------------------------------------------------------------
# seed derivation


def test_exact_mode_child_is_the_same_config():
    cfg = HybridConfig(epsilon=0.5, seed=9)
    assert cfg.child(3, 1) is cfg
    # A sampled child keeps the root seed and extends the spawn key.
    sampled = HybridConfig(epsilon=0.5, shots=10, seed=9)
    assert sampled.spawn_key == ()
    assert sampled.child(3, 1) == HybridConfig(0.5, 10, 9, (3, 1))
    assert sampled.child(3, 1).child(0) == HybridConfig(0.5, 10, 9, (3, 1, 0))


def test_hybrid_exact_trace_unchanged_by_seed_derivation(monkeypatch):
    _, trace = solve("beer_system", 3, 6, backend="hybrid-exact")

    def always_reseed(self, *key):
        state = np.random.SeedSequence(self.seed, spawn_key=key).generate_state(1)
        return HybridConfig(self.epsilon, self.shots, int(state[0]))

    monkeypatch.setattr(HybridConfig, "child", always_reseed)
    _, reseeded = solve("beer_system", 3, 6, backend="hybrid-exact")
    assert np.array_equal(np.array(trace.snapshots), np.array(reseeded.snapshots))
