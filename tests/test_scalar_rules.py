"""One integer rule and one real-number rule for every scalar argument.

``walsh._require_int`` and ``walsh._require_real`` state the rules; every
scalar argument of the library goes through one of them, so each bad value
below raises ValueError with the rule's message (IndexError where an index
is an integer outside [0, N)).  The source is also parsed: no other
function may test for bool or ``__index__`` itself.
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
    character_eval,
    differentiation_matrix,
    discretize,
    integrate_sampled,
    integration_matrix,
    measure_sampled,
    picard_solve,
    prepare_state,
    reconstruct,
    sequency_walsh_recursive,
    time_integration_operator,
    walsh_value,
)
from walshode.cli import build_parser, cmd_bench

SRC = Path(__file__).resolve().parents[1] / "src" / "walshode"

NAN, INF = math.nan, math.inf
#: Not an integer: a bool, a fraction or a float, a string, and the non-finite floats.
NOT_INT = (True, 1.5, "1", NAN, INF, -INF)
#: The same for a vector length, whose float is a power of two.
NOT_LENGTH = (True, 2.0, "2", NAN, INF, -INF)
STATE = prepare_state([0.6, 0.8])


def _zero(x, t):
    return 0.0


def _bench(**changes):
    args = build_parser().parse_args(["bench", "--sizes", "2", "--backends", "fast",
                                      "--repeats", "1", "-o", os.devnull])
    vars(args).update(changes)
    return cmd_bench(args)


#: (entry point, call of the bad value, the message before ", got ...", bad values).
SPECS = [
    ("character_eval-n", lambda v: character_eval(0, 0, v),
     "qubit count must be an integer in [1, 62]", (*NOT_INT, 0, 63)),
    ("IVProblem-n", lambda v: IVProblem(rhs=[_zero], initial=[0.0], n=v),
     "qubit count must be an integer in [1, 62]", (*NOT_INT, 0, 63)),
    ("character_eval-k", lambda v: character_eval(v, 0, 2),
     "character index k must be an integer", NOT_INT),
    ("sequency_walsh_recursive-j", lambda v: sequency_walsh_recursive(v, 0.3),
     "function index must be an integer >= 0", (*NOT_INT, -1)),
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
    ("bench-sizes", lambda v: _bench(sizes=[v]), "vector length must be an integer", NOT_LENGTH),
    ("SolverConfig-tol", lambda v: SolverConfig(n_max=2, tol=v),
     "tol must be >= 0 and finite", (True, "1", NAN, INF, -INF, -5e-324)),
    ("HybridConfig-epsilon", lambda v: HybridConfig(epsilon=v),
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
    ("character_eval-k", lambda v: character_eval(v, 0, 2), -1, IndexError,
     "character index k=-1 out of range for n=2"),
    ("character_eval-k", lambda v: character_eval(v, 0, 2), 4, IndexError,
     "character index k=4 out of range for n=2"),
    *((name, call, size, ValueError, f"vector length must be a power of two >= 2, got {size}")
      for name, call in (("integration_matrix", integration_matrix),
                         ("differentiation_matrix", differentiation_matrix),
                         ("time_integration_operator", time_integration_operator),
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


def test_an_infinite_t_falls_outside_the_interval():
    # An int past float64's range counts as an inf of its sign, not as an OverflowError.
    for t in (INF, -INF, 10**400, -10**400):
        assert walsh_value(1, t, 2) == sequency_walsh_recursive(3, t) == 0
        assert reconstruct([1.0, 2.0], t) == 0.0
    with pytest.raises(ValueError) as info:
        SolverConfig(n_max=1, tol=10**400)
    assert str(info.value) == f"tol must be >= 0 and finite, got {10**400}"


def test_numpy_integer_sizes_are_taken_and_charged_exactly():
    # A numpy size used to fail on .bit_length(); its byte count must not wrap in int64.
    assert integration_matrix(np.int64(4)) is integration_matrix(4)
    assert np.array_equal(time_integration_operator(np.uint8(4)), time_integration_operator(4))
    with pytest.raises(ResourceLimitError, match=f"needs {48 * 2**58} bytes"):
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
