"""Picard sweeps against published iterates and analytic solutions."""

import math

import numpy as np
import pytest

import walshode.hybrid
from walshode import (
    DivergenceError,
    IVProblem,
    SolverConfig,
    analytic_reference,
    builtin_problem,
    measure_sampled,
    picard_solve,
    time_integration_operator,
)

RICCATI_SWEEP_1 = np.array([-0.40625, -0.21875, -0.03125, 0.15625])
RICCATI_SWEEP_10 = np.array([-0.40512, -0.20567, 0.02743, 0.33735])

BEER_SWEEP_8_X1 = np.array([0.11960814, 0.33997528, 0.51224524, 0.62590886])
BEER_SWEEP_8_X2 = np.array([0.95686836, 0.80607053, 0.57178512, 0.33552362])
BEER_SWEEP_20_X1 = np.array([0.11960845, 0.33997421, 0.51220193, 0.62564211])
BEER_SWEEP_20_X2 = np.array([0.95686757, 0.80605858, 0.57176313, 0.33575831])


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


def test_riccati_first_sweep_exact():
    solution, trace = solve("riccati", 2, 1)
    assert np.array_equal(solution[0].values, RICCATI_SWEEP_1)
    assert trace.iterations_run == 1


def test_riccati_sweep_10():
    solution, _ = solve("riccati", 2, 10)
    assert np.max(np.abs(solution[0].values - RICCATI_SWEEP_10)) < 5e-5


def test_beer_first_sweep_keeps_x2_flat():
    # Simultaneous (Jacobi) updates: x2's derivative is evaluated at the
    # pre-sweep x1 = 0, so x2 stays identically 1 after sweep one.
    solution, _ = solve("beer_system", 2, 1)
    assert np.array_equal(solution[0].values, [0.125, 0.375, 0.625, 0.875])
    assert np.array_equal(solution[1].values, [1.0, 1.0, 1.0, 1.0])


def test_beer_sweep_8():
    solution, _ = solve("beer_system", 2, 8)
    assert np.max(np.abs(solution[0].values - BEER_SWEEP_8_X1)) < 1e-7
    assert np.max(np.abs(solution[1].values - BEER_SWEEP_8_X2)) < 1e-7


def test_beer_sweep_20():
    solution, _ = solve("beer_system", 2, 20)
    assert np.max(np.abs(solution[0].values - BEER_SWEEP_20_X1)) < 1e-7
    assert np.max(np.abs(solution[1].values - BEER_SWEEP_20_X2)) < 1e-7


# ---------------------------------------------------------------------------
# solver mechanics


def test_constant_problem_is_fixed_point():
    problem = IVProblem(m=1, rhs=[lambda x, t: 0.0], initial=[1.5], n=3)
    solution, trace = picard_solve(problem, SolverConfig(n_max=5, tol=0.0))
    assert np.all(solution[0].values == 1.5)
    assert trace.iterations_run == 5
    for snapshot in trace.snapshots:
        assert np.all(snapshot[0] == 1.5)


def test_time_only_rhs_single_sweep_is_exact_quadrature():
    # With an x-independent right-hand side, one sweep returns
    # q + the midpoint running integral of g, whatever the initial iterate.
    g = lambda x, t: math.cos(3.0 * t)
    problem = IVProblem(m=1, rhs=[g], initial=[2.0], n=3)
    solution, _ = picard_solve(problem, SolverConfig(n_max=1))
    N = 8
    mids = (2 * np.arange(N) + 1) / (2 * N)
    expected = 2.0 + time_integration_operator(N) @ np.cos(3.0 * mids)
    assert np.max(np.abs(solution[0].values - expected)) < 1e-14


def test_tolerance_stops_early_and_flags_convergence():
    problem = IVProblem(m=1, rhs=[lambda x, t: 0.0], initial=[0.25], n=2)
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
    seeds = []

    def recording(state, shots, seed):
        seeds.append(seed)
        return measure_sampled(state, shots, seed)

    monkeypatch.setattr(walshode.hybrid, "measure_sampled", recording)
    solve("beer_system", 2, 2, backend="hybrid-sampled", shots=1000, seed=3)
    # 2 sweeps x 2 variables x (forward, inverse).
    assert len(seeds) == 8
    assert len(set(seeds)) == 8
    assert all(type(seed) is int for seed in seeds)


def test_refinement_reduces_error_riccati():
    errors = {}
    for n in (2, 4):
        solution, _ = solve("riccati", n, 20)
        t = solution[0].midpoints
        exact = analytic_reference("riccati", t)[0]
        errors[n] = np.max(np.abs(solution[0].values - exact))
    assert errors[4] < errors[2]


def test_refinement_reduces_error_beer():
    errors = {}
    for n in (2, 4):
        solution, _ = solve("beer_system", n, 20)
        t = solution[0].midpoints
        exact = analytic_reference("beer_system", t)
        errors[n] = max(
            np.max(np.abs(solution[0].values - exact[0])),
            np.max(np.abs(solution[1].values - exact[1])),
        )
    assert errors[4] < errors[2]


def test_divergence_cap_raises_with_trace():
    # dx/dt = x^2 from x(0)=2 blows up inside [0,1]; iterates grow
    # double-exponentially and must trip the magnitude cap.
    problem = IVProblem(m=1, rhs=[lambda x, t: x[0] ** 2], initial=[2.0], n=2)
    with pytest.raises(DivergenceError) as info:
        picard_solve(problem, SolverConfig(n_max=100, tol=0.0))
    trace = info.value.trace
    assert trace is not None
    assert 0 < trace.iterations_run < 100
    assert len(trace.snapshots) == trace.iterations_run


def test_non_finite_rhs_raises_divergence():
    problem = IVProblem(
        m=1, rhs=[lambda x, t: float("nan") if t > 0.5 else 1.0], initial=[0.0], n=2
    )
    with pytest.raises(DivergenceError):
        picard_solve(problem, SolverConfig(n_max=2))


def test_rhs_arithmetic_error_becomes_divergence():
    # Evaluation failures (here 1/x at x=0) surface as divergence, not as a
    # raw arithmetic exception, and still carry the trace.
    problem = IVProblem(
        m=1, rhs=[lambda x, t: 1.0 / float(x[0])], initial=[0.0], n=2
    )
    with pytest.raises(DivergenceError) as info:
        picard_solve(problem, SolverConfig(n_max=3))
    assert info.value.trace is not None
    assert info.value.trace.iterations_run == 0


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_max=0)
    with pytest.raises(ValueError):
        SolverConfig(n_max=1, tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(n_max=1, backend="adams")
    with pytest.raises(ValueError):
        IVProblem(m=2, rhs=[lambda x, t: 0.0], initial=[0.0, 1.0])


def test_nonunit_domain_solution():
    # dx/dt = x on [0, 0.5], x(0) = 1 -> exp(t) at the midpoints.
    problem = IVProblem(
        m=1, rhs=[lambda x, t: x[0]], initial=[1.0], domain=(0.0, 0.5), n=4
    )
    solution, trace = picard_solve(problem, SolverConfig(n_max=60))
    t = solution[0].midpoints
    assert trace.converged
    # Midpoint discretization error at this resolution is ~2.6e-4.
    assert np.max(np.abs(solution[0].values - np.exp(t))) < 5e-4
