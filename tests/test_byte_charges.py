"""Every builder sized by a qubit count, in one table: its byte charge, refusal and peak.

``errors.MAX_ALLOC_BYTES`` bounds the most bytes one call holds at once; each builder
charges that peak, in closed form, to its module's ``require_bytes`` before it allocates.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from walshode import calculus, errors, transform, walsh
from walshode import ResourceLimitError, WalshOrdering

from call_graph import public_callers

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
    "discretize": (lambda n: (walsh.discretize, np.cos, n), lambda n: (17 << n) + 2048, 25),
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
    "cmd_bench": "test_cli's FAILURES rows bench-over-the-cap and bench-naive-over-the-cap pin it",
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
    rows = {name.partition("-")[0] for name in ROWS}
    assert public_callers({"require_bytes"}) == rows | set(UNMEASURED)
