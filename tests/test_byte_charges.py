"""Every builder sized by a qubit count, in one table: its byte charge, refusal and peak.

``errors.MAX_ALLOC_BYTES`` bounds the most bytes one call holds at once; each builder
charges that peak, in closed form, to its module's ``require_bytes`` before it allocates.
"""

import ast
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from walshode import calculus, errors, hybrid, transform, walsh
from walshode import ResourceLimitError, WalshOrdering

SRC = Path(__file__).resolve().parents[1] / "src" / "walshode"
NAT, SEQ = WalshOrdering.NATURAL, WalshOrdering.SEQUENCY
SLACK = 1024  # what a peak may pass its charge by: tracemalloc also sees the ndarray objects

#: name: (n -> (builder, *arguments built before the call), n -> charge, largest n admitted)
ROWS = {
    "character_table": (lambda n: (walsh.character_table, n),
                        lambda n: (1 << n) * (5 * (1 << n) + 4) + 8 * np.getbufsize(), 13),
    "wht_naive": (lambda n: (transform.wht_naive, np.ones(1 << n)), lambda n: 9 << 2 * n, 13),
    "ordering_permutation-sequency-to-natural": (
        lambda n: (walsh.ordering_permutation, n, SEQ, NAT), lambda n: 24 << n, 25),
    "ordering_permutation-natural-to-sequency": (
        lambda n: (walsh.ordering_permutation, n, NAT, SEQ), lambda n: 8 << n, 27),
    "discretize": (lambda n: (walsh.discretize, np.cos, n), lambda n: (25 << n) + 2048, 25),
    "classical_side_opcount": (lambda n: (hybrid.classical_side_opcount, 1 << n),
                               lambda n: 56 << n, 24),
    "integration_matrix": (lambda n: (calculus.integration_matrix, 1 << n),
                           lambda n: (48 << n) + 1024, 24),
    "differentiation_matrix": (lambda n: (calculus.differentiation_matrix, 1 << n),
                               lambda n: (48 << n) + 1024, 24),
    "OperationalMatrix.entries": (
        lambda n: (calculus.OperationalMatrix.entries.fget, calculus.integration_matrix(1 << n)),
        lambda n: (8 << 2 * n) + 4096, 13),
    "time_integration_operator": (lambda n: (calculus.time_integration_operator, 1 << n),
                                  lambda n: 9 << 2 * n, 13),
}

#: Public functions that charge but have no row, and why.
UNMEASURED = {
    "picard_solve": "its peak is known to exceed its charge",
    "cmd_bench": "test_cli's test_bench_oversized_size_refused_before_any_size_runs pins it",
}


def _run(monkeypatch, name, n):
    """The row's call at n, operators built cold, under tracemalloc: its peak, the
    ResourceLimitError it raised or None, and each (charge, peak up to that charge)."""
    monkeypatch.setattr(calculus, "_cache", {})
    builder, *args = ROWS[name][0](n)
    charges = []

    def record(nbytes, what):
        charges.append((nbytes, tracemalloc.get_traced_memory()[1]))
        errors.require_bytes(nbytes, what)

    monkeypatch.setattr(sys.modules[builder.__module__], "require_bytes", record)
    error = None
    tracemalloc.start()
    try:
        builder(*args)
    except ResourceLimitError as exc:
        error = exc
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak, error, charges


@pytest.mark.parametrize("n", [8, 10, 11])
@pytest.mark.parametrize("name", ROWS)
def test_the_charge_is_checked_first_and_bounds_the_peak(monkeypatch, name, n):
    charge = ROWS[name][1](n)
    _run(monkeypatch, name, n)  # numpy's first-call caches are not the call's arrays
    peak, error, charges = _run(monkeypatch, name, n)
    assert error is None
    assert [nbytes for nbytes, _ in charges] == [charge]
    assert peak <= charge + SLACK
    assert charge <= 2 * peak
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", charge - 1)
    _, error, [(_, held)] = _run(monkeypatch, name, n)
    assert str(error).endswith(f" needs {charge} bytes, over the cap of {charge - 1}")
    assert held < 8 << n  # the peak up to the refusal: not one array of N items


@pytest.mark.parametrize("name", ROWS)
def test_the_largest_size_is_the_last_the_cap_admits(monkeypatch, name):
    _, charge, largest = ROWS[name]
    assert charge(largest) <= errors.MAX_ALLOC_BYTES < charge(largest + 1)
    _, error, charges = _run(monkeypatch, name, largest + 1)
    assert isinstance(error, ResourceLimitError)
    assert [nbytes for nbytes, _ in charges] == [charge(largest + 1)]


def test_every_public_charge_is_a_row_or_named_as_unmeasured():
    calls = {}  # each function, qualified by its class, -> the names it calls

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                calls[prefix + child.name] = {sub.func.id for sub in ast.walk(child)
                                              if isinstance(getattr(sub, "func", None), ast.Name)}

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    helpers = {"require_bytes"}  # and, as found, every private function that charges
    while True:
        charging = {name for name, called in calls.items() if called & helpers}
        private = {name for name in charging if name.startswith("_")}
        if private <= helpers:
            break
        helpers |= private
    assert charging - helpers == {name.partition("-")[0] for name in ROWS} | set(UNMEASURED)
