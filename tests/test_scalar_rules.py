"""Every scalar argument's refused and accepted values, pinned in one place.

``walsh._require_int`` and ``walsh._require_real`` state the rules; every
scalar argument of the library goes through one of them, so each bad value
below raises ValueError with the rule's message (IndexError where an index
is an integer outside [0, N)), and a numpy integer is taken as its int.
This file is the one place that pins those values: a new scalar setting
adds a row to SPECS (and to ACCEPTED if it is an integer), not a test in
each module it passes through.  What the CLI does with a hybrid setting is
pinned by ``test_cli.py::test_cli_and_library_agree_on_settings``.  The
source is also parsed: no other function may test for bool or
``__index__`` itself.
"""

import ast
import math
import os
from pathlib import Path

import numpy as np
import pytest

from walshode import (
    HybridConfig,
    ResourceLimitError,
    IVProblem,
    SampledFunction,
    SolverConfig,
    WalshOrdering,
    builtin_problem,
    character_eval,
    character_table,
    classical_side_opcount,
    differentiation_matrix,
    discretize,
    hybrid_wht,
    integrate_sampled,
    integration_matrix,
    measure_sampled,
    ordering_permutation,
    picard_solve,
    prepare_state,
    reconstruct,
    sequency_walsh_recursive,
    time_integration_operator,
    walsh_value,
)
from walshode.cli import build_parser, cmd_bench
from walshode.hybrid import backend_config

SRC = Path(__file__).resolve().parents[1] / "src" / "walshode"

NAN, INF = math.nan, math.inf
NAT, SEQ = WalshOrdering.NATURAL, WalshOrdering.SEQUENCY
#: Not an integer: a bool, a fraction, an integral float, a string, and the non-finite floats.
NOT_INT = (True, 1.5, 2.0, "1", NAN, INF, -INF)
#: A qubit count: not an integer, None, or outside [1, 62].
QUBITS = (*NOT_INT, None, 0, 63)
#: The same for a vector length, whose float is a power of two.
NOT_LENGTH = (True, 2.0, "2", NAN, INF, -INF)
STATE = prepare_state([0.6, 0.8])
VECTOR = np.array([0.5, -0.25, 1.0, 0.0])


def _zero(x, t):
    return 0.0


def _bench(**changes):
    args = build_parser().parse_args(["bench", "--sizes", "2", "--backends", "fast",
                                      "--repeats", "1", "-o", os.devnull])
    vars(args).update(changes)
    return cmd_bench(args)


def _riccati(n=3, n_max=3):
    solution, _ = picard_solve(builtin_problem("riccati", n=n), SolverConfig(n_max=n_max, tol=0.0))
    return solution[0].values


#: The index arguments: (entry point, call of the index, its name in the messages).
INDICES = [
    ("character_eval-k", lambda v: character_eval(v, 0, 2), "character index k"),
    ("character_eval-x", lambda v: character_eval(0, v, 2), "group element x"),
    ("walsh_value-k", lambda v: walsh_value(v, 0.3, 2), "function index k"),
    ("walsh_value-k-sequency", lambda v: walsh_value(v, 0.3, 2, SEQ), "function index k"),
]

#: (entry point, call of the bad value, the message before ", got ...", bad values).
SPECS = [
    ("character_eval-n", lambda v: character_eval(0, 0, v),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("character_table-n", character_table, "qubit count must be an integer in [1, 62]", QUBITS),
    ("ordering_permutation-n", lambda v: ordering_permutation(v, NAT, SEQ),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("walsh_value-n", lambda v: walsh_value(0, 0.5, v),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("discretize-n", lambda v: discretize(np.cos, v),
     "qubit count must be an integer in [1, 62]", QUBITS),
    ("IVProblem-n", lambda v: IVProblem(rhs=[_zero], initial=[0.0], n=v),
     "qubit count must be an integer in [1, 62]", QUBITS),
    *((name, call, f"{what} must be an integer", (*NOT_INT, None)) for name, call, what in INDICES),
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
    ("picard_solve-domain", lambda v: picard_solve(
        IVProblem(rhs=[_zero], initial=[0.0], domain=(v, "1")), SolverConfig(n_max=1)),
     "domain end must be a real number", ("0",)),
    ("integrate_sampled-domain", lambda v: integrate_sampled(np.ones(2), (0.0, v)),
     "domain end must be a real number", (True, "1", NAN, None)),
    ("discretize-domain", lambda v: discretize(np.cos, 1, (v, 1.0)),
     "domain end must be a real number", (True, "0", NAN, None)),
    ("SampledFunction-domain", lambda v: SampledFunction(np.ones(2), (0.0, v)),
     "domain end must be a real number", (True, "1", NAN, None)),
    ("sequency_walsh_recursive-x", lambda v: sequency_walsh_recursive(3, v),
     "x must be a real number", (True, None, "a", NAN)),
    ("walsh_value-t", lambda v: walsh_value(1, v, 2),
     "t must be a real number", (True, None, "a", NAN)),
    ("reconstruct-t", lambda v: reconstruct([1.0, 2.0], v),
     "t must be a real number", (True, None, "a", NAN)),
]

#: Bounds that are not the rule's own: (entry point, call, bad value, exception, message).
OWN_BOUNDS = [
    # walsh_value checks k against N before a sequency k is converted: INDICES[3] adds nothing.
    *((name, call, k, IndexError, f"{what}={k} out of range for n=2")
      for name, call, what in INDICES[:3] for k in (-1, 4)),
    *((name, call, size, ValueError, f"vector length must be a power of two >= 2, got {size}")
      for name, call in (("integration_matrix", integration_matrix),
                         ("differentiation_matrix", differentiation_matrix),
                         ("time_integration_operator", time_integration_operator),
                         ("classical_side_opcount", classical_side_opcount),
                         ("bench-sizes", lambda v: _bench(sizes=[v])))
      for size in (1, 3)),
    ("IVProblem-domain", lambda v: IVProblem(rhs=[_zero], initial=[0.0], domain=(v, 1.0)),
     -INF, ValueError,
     "domain must be finite with t_lo < t_hi and a finite width, got (-inf, 1.0)"),
]

CASES = [pytest.param(call, value, ValueError, f"{message}, got {value!r}",
                      id=f"{name}-{value!r}")
         for name, call, message, values in SPECS for value in values]
CASES += [pytest.param(call, value, exc, message, id=f"{name}-{value!r}")
          for name, call, value, exc, message in OWN_BOUNDS]


@pytest.mark.parametrize("call, value, exc, message", CASES)
def test_every_scalar_argument_follows_one_rule(call, value, exc, message):
    with pytest.raises(Exception) as info:
        call(value)
    assert (type(info.value), str(info.value)) == (exc, message)


#: (entry point, call, a numpy integer it takes as its int).  np.uint8 where
#: a count shifted or multiplied in uint8 would wrap: 1 << np.uint8(8) is 0.
ACCEPTED = [
    ("character_eval-n", lambda v: character_eval(1, 1, v), np.uint8(8)),
    ("character_table-n", character_table, np.uint8(8)),
    ("ordering_permutation-n", lambda v: ordering_permutation(v, NAT, SEQ), np.uint8(8)),
    ("walsh_value-n", lambda v: walsh_value(5, 0.9, v, SEQ), np.uint8(8)),
    ("discretize-n", lambda v: discretize(np.cos, v).values, np.uint8(8)),
    ("IVProblem-n", lambda v: _riccati(n=v), np.uint8(8)),
    ("character_eval-k", lambda v: character_eval(v, 1, 1), np.int64(1)),
    ("character_eval-x", lambda v: character_eval(1, v, 1), np.int64(1)),
    ("walsh_value-k", lambda v: walsh_value(v, 0.9, 3), np.int64(5)),
    ("walsh_value-k-sequency", lambda v: walsh_value(v, 0.9, 3, SEQ), np.int64(5)),
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
        assert walsh_value(1, t, 2) == sequency_walsh_recursive(3, t) == 0
        assert reconstruct([1.0, 2.0], t) == 0.0
    with pytest.raises(ValueError) as info:
        SolverConfig(n_max=1, tol=10**400)
    assert str(info.value) == f"tol must be >= 0 and finite, got {10**400}"


def test_numpy_integer_sizes_are_taken_and_charged_exactly():
    # The byte count is computed on the Python int, so it does not wrap in int64.
    with pytest.raises(ResourceLimitError, match=f"needs {48 * 2**58 + 1024} bytes"):
        integration_matrix(np.int64(2**58))


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
