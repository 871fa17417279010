"""Every argument's refused values, scalars, vectors and domains, pinned in one place.

``walsh._require_int`` and ``walsh._require_real`` state the scalar rules; every
scalar argument of the library goes through one of them, so each bad value
below raises ValueError with the rule's message, and a numpy integer is taken as its int.
An ordering, a solver backend and a builtin problem's name are refused here too.
``_require_vector`` states the shape and length of a vector, ``_require_finite``
that its entries are finite, and ``_require_domain`` what a domain is; every
public name that reaches one of them has rows here, and a vector entry point
that lets a non-finite entry through is named in PASSES_NON_FINITE.
This file is the one place that pins those values: a new argument adds rows
here (and to ACCEPTED if it is an integer), not a test in each module it
passes through.  What the CLI does with a hybrid setting is pinned by
``test_cli.py::test_cli_and_library_agree_on_settings``.  The source is also
parsed: no other function may test for bool or ``__index__`` itself.
"""

import ast
import math
import os
import warnings

import numpy as np
import pytest

from walshode import (
    HybridConfig,
    ResourceLimitError,
    IVProblem,
    SampledFunction,
    SolverConfig,
    WalshOrdering,
    analytic_reference,
    apply_hadamard_all,
    builtin_problem,
    character_table,
    classical_side_opcount,
    differentiation_matrix,
    discretize,
    fwht,
    hybrid_wht,
    integrate_sampled,
    integration_matrix,
    measure_exact,
    measure_sampled,
    ordering_permutation,
    picard_solve,
    prepare_state,
    reconstruct,
    sequency_walsh_recursive,
    sign_safe,
    time_integration_operator,
    wht_naive,
)
from walshode.cli import build_parser, cmd_bench
from walshode.hybrid import backend_config
from walshode.solver import _BACKENDS

from call_graph import SRC, public_callers

NAN, INF = math.nan, math.inf
NAT, SEQ = WalshOrdering.NATURAL, WalshOrdering.SEQUENCY
#: Not an integer: a bool, a fraction, an integral float, a string, and the non-finite floats.
NOT_INT = (True, 1.5, 2.0, "1", NAN, INF, -INF)
#: A qubit count: not an integer, None, or outside [1, 62].
QUBITS = (*NOT_INT, None, 0, 63)
#: Not a WalshOrdering: its members' names, None, and what an enum's value or a flag might be.
NOT_ORDERING = ("natural", "sequency", None, 0, True)
#: The same for a vector length, whose float is a power of two.
NOT_LENGTH = (True, 2.0, "2", NAN, INF, -INF)
STATE = prepare_state([0.6, 0.8])
VECTOR = np.array([0.5, -0.25, 1.0, 0.0])


def _zero(x, t):
    return 0.0


def _unsampled(t):
    raise AssertionError(f"sampled at t={t}")


def _bench(**changes):
    args = build_parser().parse_args(["bench", "--sizes", "2", "--backends", "fast",
                                      "--repeats", "1", "-o", os.devnull])
    vars(args).update(changes)
    return cmd_bench(args)


def _solve_changed(**fields):
    """picard_solve of a problem built valid, then with ``fields`` reassigned."""
    problem = IVProblem(rhs=[_zero], initial=[0.0])
    for name, value in fields.items():
        setattr(problem, name, value)
    return picard_solve(problem, SolverConfig(n_max=1))


def _riccati(n=3, n_max=3):
    solution, _ = picard_solve(builtin_problem("riccati", n=n), SolverConfig(n_max=n_max, tol=0.0))
    return solution[0].values


#: (entry point, call of the bad value, the message before ", got ...", bad values).
SPECS = [
    ("character_table-n", character_table, "qubit count must be an integer in [1, 62]", QUBITS),
    ("ordering_permutation-n", lambda v: ordering_permutation(v, NAT, SEQ),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("ordering_permutation-source", lambda v: ordering_permutation(2, v, SEQ),
     "ordering must be a WalshOrdering", NOT_ORDERING),
    ("ordering_permutation-target", lambda v: ordering_permutation(2, NAT, v),
     "ordering must be a WalshOrdering", NOT_ORDERING),
    ("discretize-n", lambda v: discretize(np.cos, v),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("IVProblem-n", lambda v: IVProblem(rhs=[_zero], initial=[0.0], n=v),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("picard_solve-n", lambda v: _solve_changed(n=v),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("sequency_walsh_recursive-j", lambda v: sequency_walsh_recursive(v, 0.3),
     "function index must be an integer >= 0", (*NOT_INT, None, -1)),
    ("HybridConfig-shots", lambda v: HybridConfig(shots=v, seed=0),
     f"shots must be an integer in [1, {2**63 - 1}]", (*NOT_INT, 0, 2**63)),
    ("measure_sampled-shots", lambda v: measure_sampled(STATE, v, 0),
     f"shots must be an integer in [1, {2**63 - 1}]", (*NOT_INT, 0, 2**63)),
    ("HybridConfig-seed", lambda v: HybridConfig(shots=1, seed=v),
     "seed must be an integer >= 0", (*NOT_INT, -1, None)),
    ("measure_sampled-seed", lambda v: measure_sampled(STATE, 1, v),
     "seed must be an integer >= 0", (*NOT_INT, -1, None)),
    ("HybridConfig-spawn_key", lambda v: HybridConfig(shots=1, seed=0, spawn_key=(v,)),
     "spawn_key entry must be an integer >= 0", (*NOT_INT, -1)),
    ("HybridConfig.child", lambda v: HybridConfig(shots=1, seed=0).child(v),
     "spawn_key entry must be an integer >= 0", (*NOT_INT, -1)),
    ("measure_sampled-spawn_key", lambda v: measure_sampled(STATE, 1, 0, (v,)),
     "spawn_key entry must be an integer >= 0", (*NOT_INT, -1)),
    ("SolverConfig-n_max", lambda v: SolverConfig(n_max=v),
     "n_max must be an integer >= 1", (*NOT_INT, 0)),
    ("SolverConfig-backend", lambda v: SolverConfig(n_max=1, backend=v),
     f"backend must be one of {_BACKENDS}", ("fast", "Classical", "hybrid", None, 0)),
    ("bench-repeats", lambda v: _bench(repeats=v),
     "--repeats must be an integer >= 1", (*NOT_INT, 0)),
    ("integration_matrix", integration_matrix, "vector length must be an integer", NOT_LENGTH),
    ("differentiation_matrix", differentiation_matrix,
     "vector length must be an integer", NOT_LENGTH),
    ("time_integration_operator", time_integration_operator,
     "vector length must be an integer", NOT_LENGTH),
    ("classical_side_opcount", classical_side_opcount,
     "vector length must be an integer", NOT_LENGTH),
    ("bench-sizes", lambda v: _bench(sizes=[v]), "vector length must be an integer", NOT_LENGTH),
    ("SolverConfig-tol", lambda v: SolverConfig(n_max=2, tol=v),
     "tol must be >= 0 and finite", (True, False, "1", NAN, INF, -INF, -5e-324)),
    ("HybridConfig-epsilon", lambda v: HybridConfig(epsilon=v),
     "epsilon must be > 0 and finite", (True, "1", NAN, INF, -INF, 0.0, -5e-324)),
    ("backend_config-epsilon", lambda v: backend_config("hybrid-exact", v),
     "epsilon must be > 0 and finite", (True, "1", NAN, INF, -INF, 0.0, -5e-324)),
    ("IVProblem-domain", lambda v: IVProblem(rhs=[_zero], initial=[0.0], domain=(v, 1.0)),
     "domain end must be a real number", (True, "0", NAN, None)),
    ("picard_solve-domain", lambda v: _solve_changed(domain=(v, 1.0)),
     "domain end must be a real number", (True, "0", NAN, None)),
    ("integrate_sampled-domain", lambda v: integrate_sampled(np.ones(2), (0.0, v)),
     "domain end must be a real number", (True, "1", NAN, None)),
    ("discretize-domain", lambda v: discretize(_unsampled, 1, (v, 1.0)),
     "domain end must be a real number", (True, "0", NAN, None)),
    ("SampledFunction-domain", lambda v: SampledFunction(np.ones(2), (0.0, v)),
     "domain end must be a real number", (True, "1", NAN, None)),
    ("sequency_walsh_recursive-x", lambda v: sequency_walsh_recursive(3, v),
     "x must be a real number", (True, None, "a", NAN)),
    ("reconstruct-t", lambda v: reconstruct([1.0, 2.0], v),
     "t must be a real number", (True, None, "a", NAN)),
]

#: Bounds that are not the rule's own: (entry point, call, bad value, exception, message).
OWN_BOUNDS = [
    *((name, call, size, ValueError, f"vector length must be a power of two >= 2, got {size}")
      for name, call in (("integration_matrix", integration_matrix),
                         ("differentiation_matrix", differentiation_matrix),
                         ("time_integration_operator", time_integration_operator),
                         ("classical_side_opcount", classical_side_opcount),
                         ("bench-sizes", lambda v: _bench(sizes=[v])))
      for size in (1, 3)),
    # A register has unit norm and squares that sum to a positive total; a square past
    # float64's range is the overflow rule's (test_properties.py).
    *(("prepare_state", prepare_state, v, ValueError,
       f"state vector must have unit norm, got {norm}")
      for v, norm in (([1.0, 1.0], math.sqrt(2.0)), ([1e200, 0.0], INF))),
    ("measure_sampled", lambda v: measure_sampled(v, 10, 1), [0.0] * 4, ValueError,
     "squared amplitudes must sum to a positive number, got 0.0"),
    *((f"OperationalMatrix.apply-{M.kind}", lambda shape, M=M: M.apply(np.ones(shape)), shape,
       ValueError, f"the {M.kind} matrix takes shape (8,), got shape {shape}")
      for M in (integration_matrix(8), differentiation_matrix(8))
      for shape in ((16,), (5,), (2, 8))),
    # The first non-finite sample is named by its midpoint, whether f returns a scalar or N.
    *(("discretize", lambda v: discretize(lambda t: v, 2), v, ValueError,
       "function returned a non-finite sample at t=0.125") for v in (NAN, INF, -INF)),
    *(("discretize-later", lambda v: discretize(lambda t: np.where(t < 0.5, 1.0, v), 2), v,
       ValueError, "function returned a non-finite sample at t=0.625") for v in (NAN, INF, -INF)),
    *((name, call, v, ValueError, f"unknown builtin problem {v!r}")
      for name, call in (("builtin_problem", builtin_problem),
                         ("analytic_reference", lambda v: analytic_reference(v, 0.5)))
      for v in ("Riccati", "beer", "", None)),
    # A problem is checked as it stands when a solve reads it, not only when it is built.
    ("picard_solve-initial", lambda v: _solve_changed(initial=v), [-0.5, 7.0], ValueError,
     "need one initial value per right-hand side (m=1), got 2"),
    ("IVProblem-rhs", lambda v: IVProblem(rhs=[_zero, v], initial=[0.0, 0.0]), 1.0, ValueError,
     "rhs[1] must be callable, got 1.0"),
    ("picard_solve-rhs", lambda v: _solve_changed(rhs=[v]), None, ValueError,
     "rhs[0] must be callable, got None"),
]


def _integrate_hybrid(values, domain=(0.0, 1.0)):
    return integrate_sampled(values, domain, HybridConfig())


#: The vector arguments: (entry point, call of the vector, its name in the messages).
VECTORS = [
    ("fwht", fwht, "input"),
    ("wht_naive", wht_naive, "input"),
    ("hybrid_wht", hybrid_wht, "input"),
    ("sign_safe", sign_safe, "input"),
    ("reconstruct", lambda v: reconstruct(v, 0.25), "coefficients"),
    ("prepare_state", prepare_state, "state vector"),
    ("apply_hadamard_all", apply_hadamard_all, "state vector"),
    ("measure_exact", measure_exact, "state vector"),
    ("measure_sampled", lambda v: measure_sampled(v, 10, 1), "state vector"),
    ("integrate_sampled-fwht", integrate_sampled, "samples"),
    ("integrate_sampled-hybrid", _integrate_hybrid, "samples"),
    ("SampledFunction", SampledFunction, "samples"),
]

#: Vectors whose first non-finite entry, at index 0 or later, is followed by another.
NON_FINITE = ([NAN, 1.0, INF, 0.0], [INF, 1.0, 0.0, -INF], [-INF, NAN, 0.0, 1.0],
              [1.0, NAN, 0.0, NAN], [1.0, 0.0, INF, NAN], [1.0, 0.0, 0.5, -INF])

#: The entry points that refuse a non-finite entry: (entry point, call, its name in the
#: messages, bad vectors).  hybrid_wht checks only once its absolute sum is not finite,
#: which a nan beside a finite sum that overflows also makes it; the register functions
#: check only once a norm, square or total is not what they take.
FINITE = [
    ("hybrid_wht", hybrid_wht, "input", (*NON_FINITE, [1e308, 1e308, NAN, 0.0])),
    ("integrate_sampled-fwht", integrate_sampled, "samples", NON_FINITE),
    ("integrate_sampled-hybrid", _integrate_hybrid, "samples", NON_FINITE),
    ("SampledFunction", SampledFunction, "samples", NON_FINITE),
    ("IVProblem-initial", lambda v: IVProblem(rhs=[_zero] * len(v), initial=v),
     "initial values", NON_FINITE),
    ("picard_solve-initial", lambda v: _solve_changed(rhs=[_zero] * len(v), initial=v),
     "initial values", NON_FINITE),
    ("prepare_state", prepare_state, "state vector", NON_FINITE),
    ("measure_exact", measure_exact, "state vector", NON_FINITE),
    ("measure_sampled", lambda v: measure_sampled(v, 10, 1), "state vector", NON_FINITE),
]

#: The domain arguments: (entry point, call of the domain).  discretize's function fails
#: if it is called, so its domain is refused before the first sample.
DOMAINS = [
    ("IVProblem-domain", lambda d: IVProblem(rhs=[_zero], initial=[0.0], domain=d)),
    ("picard_solve-domain", lambda d: _solve_changed(domain=d)),
    ("SampledFunction-domain", lambda d: SampledFunction(np.ones(2), d)),
    ("integrate_sampled-fwht-domain", lambda d: integrate_sampled(np.ones(2), d)),
    ("integrate_sampled-hybrid-domain", lambda d: _integrate_hybrid(np.ones(2), d)),
    ("discretize-domain", lambda d: discretize(_unsampled, 2, d)),
]
BAD_DOMAINS = [
    *((d, f"domain must be finite with t_lo < t_hi and a finite width, got {d}")
      for d in ((1.0, 1.0), (1.0, 0.0), (0.0, INF), (-INF, 1.0), (-1e308, 1e308))),
    ((0.0, NAN), "domain end must be a real number, got nan"),
    *((d, f"domain must be two ends (t_lo, t_hi), got {d!r}") for d in ((0, 0.5, 1), (1.0,), 5)),
]

CASES = [pytest.param(call, value, ValueError, f"{message}, got {value!r}",
                      id=f"{name}-{value!r}")
         for name, call, message, values in SPECS for value in values]
CASES += [pytest.param(call, value, exc, message, id=f"{name}-{value!r}")
          for name, call, value, exc, message in OWN_BOUNDS]
CASES += [pytest.param(call, np.full(shape, 0.5), ValueError,
                       f"{what} must form a 1-D vector, got shape {shape}",
                       id=f"{name}-shape{shape}")
          for name, call, what in VECTORS for shape in ((2, 2), (1, 4), (4, 1), ())]
CASES += [pytest.param(call, [0.5] * size, ValueError,
                       f"vector length must be a power of two >= 2, got {size}",
                       id=f"{name}-size{size}")
          for name, call, _ in VECTORS for size in (0, 1, 3, 6, 12)]
CASES += [pytest.param(call, v, ValueError,
                       f"{what} must be finite, got {next(x for x in v if not math.isfinite(x))}",
                       id=f"{name}-{v!r}")
          for name, call, what, vectors in FINITE for v in vectors]
CASES += [pytest.param(call, domain, ValueError, message, id=f"{name}-{domain!r}")
          for name, call in DOMAINS for domain, message in BAD_DOMAINS]


@pytest.mark.parametrize("call, value, exc, message", CASES)
def test_every_argument_follows_its_rule(call, value, exc, message):
    with pytest.raises(Exception) as info:
        call(value)
    assert (type(info.value), str(info.value)) == (exc, message)


#: (entry point, call, a numpy integer it takes as its int).  np.uint8 where
#: a count shifted or multiplied in uint8 would wrap: 1 << np.uint8(8) is 0.
ACCEPTED = [
    ("character_table-n", character_table, np.uint8(8)),
    ("ordering_permutation-n", lambda v: ordering_permutation(v, NAT, SEQ), np.uint8(8)),
    ("discretize-n", lambda v: discretize(np.cos, v).values, np.uint8(8)),
    ("IVProblem-n", lambda v: _riccati(n=v), np.uint8(8)),
    ("sequency_walsh_recursive-j", lambda v: sequency_walsh_recursive(v, 0.1), np.int64(6)),
    ("HybridConfig-shots", lambda v: hybrid_wht(VECTOR, HybridConfig(shots=v, seed=3))[0],
     np.int64(5)),
    ("measure_sampled-shots", lambda v: measure_sampled(STATE, v, 7), np.int64(5)),
    ("HybridConfig-seed", lambda v: hybrid_wht(VECTOR, HybridConfig(shots=1000, seed=v))[0],
     np.int64(7)),
    ("measure_sampled-seed", lambda v: measure_sampled(STATE, 1000, v), np.int64(7)),
    ("HybridConfig-spawn_key", lambda v: hybrid_wht(
        VECTOR, HybridConfig(shots=1000, seed=3, spawn_key=(v,)))[0], np.uint8(1)),
    ("HybridConfig.child", lambda v: hybrid_wht(
        VECTOR, HybridConfig(shots=1000, seed=3).child(2, v))[0], np.uint8(1)),
    ("measure_sampled-spawn_key", lambda v: measure_sampled(STATE, 1000, 7, (v,)), np.uint8(1)),
    ("SolverConfig-n_max", lambda v: _riccati(n_max=v), np.int64(3)),
    ("bench-repeats", lambda v: _bench(repeats=v), np.int64(2)),
    # An OperationalMatrix compares by identity, so these two rows check the cache hit.
    ("integration_matrix", integration_matrix, np.uint8(8)),
    ("differentiation_matrix", differentiation_matrix, np.uint8(8)),
    ("time_integration_operator", time_integration_operator, np.uint8(8)),
    ("classical_side_opcount", classical_side_opcount, np.uint8(8)),
    ("bench-sizes", lambda v: _bench(sizes=[v]), np.uint8(16)),
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}-{type(value).__name__}")
    for name, call, value in ACCEPTED])
def test_a_numpy_integer_is_taken_as_its_int(call, value):
    assert np.array_equal(call(value), call(int(value)))


def test_an_infinite_t_falls_outside_the_interval():
    # An int past float64's range counts as an inf of its sign, not as an OverflowError.
    for t in (INF, -INF, 10**400, -10**400):
        assert sequency_walsh_recursive(3, t) == 0
        assert reconstruct([1.0, 2.0], t) == 0.0
    with pytest.raises(ValueError) as info:
        SolverConfig(n_max=1, tol=10**400)
    assert str(info.value) == f"tol must be >= 0 and finite, got {10**400}"


def test_numpy_integer_sizes_are_taken_and_charged_exactly():
    # The byte count is computed on the Python int, so it does not wrap in int64.
    with pytest.raises(ResourceLimitError, match=f"needs {48 * 2**58 + 1024} bytes"):
        integration_matrix(np.int64(2**58))


#: Vector entry points that return, without an error or a warning, for a non-finite entry:
#: (call, why).  For finite input the overflow rule holds (test_properties.py); for a nan
#: entry, which sets no numpy flag, it changes nothing.
PASSES_NON_FINITE = {
    "fwht": (fwht, "follows the caller's numpy error state, by design"),
    "wht_naive": (wht_naive, "the oracle: one product with the sign table"),
    "apply_hadamard_all": (apply_hadamard_all, "a gate layer, as hardware, takes any amplitudes"),
    "sign_safe": (sign_safe, "a comparison: nan exceeds no sum, so the answer is False"),
    "reconstruct": (lambda v: reconstruct(v, 0.3), "one signed sum of the coefficients"),
    "OperationalMatrix.apply": (integration_matrix(4).apply,
                                "the product inside integrate_sampled, which checks first"),
}


@pytest.mark.parametrize("name", PASSES_NON_FINITE)
def test_the_named_entry_points_pass_a_non_finite_entry_through(name):
    call, _ = PASSES_NON_FINITE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(np.array([1.0, 0.5, NAN, 0.0]))


def test_every_vector_or_domain_argument_is_a_row_or_passes_non_finite():
    rows = {name.partition("-")[0] for name, *_ in VECTORS + FINITE + DOMAINS}
    checked = public_callers({"_require_vector", "_require_finite", "_require_domain"})
    assert checked - rows - set(PASSES_NON_FINITE) == set()


def _rule_tests(path):
    """(function, line) of every bool or __index__ test in the file; None at module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and len(child.args) == 2:
                kind, arg = child.func.id, child.args[1]
                names = {e.id for e in getattr(arg, "elts", [arg]) if isinstance(e, ast.Name)}
                if (kind == "isinstance" and "bool" in names) or (
                        kind == "hasattr" and isinstance(arg, ast.Constant)
                        and arg.value == "__index__"):
                    found.append((owner, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_two_rules_test_for_bool_or_index():
    owners = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
              for owner, _ in _rule_tests(path)}
    assert owners == {("walsh.py", "_require_int"), ("walsh.py", "_require_real")}
