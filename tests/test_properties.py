"""The overflow rule, the transform oracles and the ordering permutation, as hypothesis properties.

The overflow rule (``errors._overflow_rule``; README, "Argument rules"): a public entry point
given finite float64 input returns a finite result or raises FloatingPointError whose message
names it, and lets no numpy RuntimeWarning out, whatever the caller's error state.  Two
preconditions stay ValueErrors (``prepare_state``'s unit norm, ``measure_sampled``'s zero
total), and ``hybrid_wht`` raises in its own words.  ``fwht`` and ``OperationalMatrix.apply``
follow the caller's error state instead, D's sums included.  Every vector entry point of
``test_argument_rules.VECTORS``, and ``apply``, is fed finite vectors of 2 to 256 entries over
the whole float64 range, subnormals and +-1.8e308 included, under each caller error state,
with warnings as errors.  The calls that broke the rule before it was stated are pinned as
examples.  The natural-to-sequency permutation is checked against the recursive definition at
one drawn row and cell for n <= 16; criterion 7 checks every row and cell up to n = 6.

The profile is derandomized, with a fixed example count and no example database, so the
suite draws the same examples on every run; what hypothesis still writes (a cache of the
constants in the code under test, a patch for a failing example) goes to the system's
temporary directory, not to a ``.hypothesis`` directory of the checkout.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from walshode import (HybridConfig, WalshOrdering, differentiation_matrix, fwht, hybrid_wht,
                      integrate_sampled, integration_matrix, ordering_permutation, reconstruct,
                      sequency_walsh_recursive, wht_naive)

from test_argument_rules import VECTORS
from trapezoid_march import trapezoid_integral

# On a failing example hypothesis's pytest plugin imports libcst, where it is installed, to
# write a patch.  That import warns (DeprecationWarning), and pytest's filterwarnings = error
# would turn it into an internal error that stops the run; imported here first, it does not.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

# hypothesis writes under its home directory, .hypothesis in the working directory by default,
# even without a database: the system's temporary directory keeps the checkout clean.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "walshode-hypothesis")
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("tier1")

#: The unit roundoff of float64, and the smallest subnormal.
U, TINY = 2.0**-53, 2.0**-1074
NORM = "the shifted vector's squared norm overflows float64"

FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Finite float64 vectors of N = 2^n entries, 1 <= n <= 8, over the whole range.
VECTOR = st.integers(1, 8).flatmap(lambda n: st.lists(FINITE, min_size=1 << n, max_size=1 << n))
#: The caller's numpy error state, one setting for every kind of error.
STATE = st.sampled_from(["ignore", "warn", "raise"])


@st.composite
def domains(draw):
    """A domain the domain rule takes: finite ends, t_lo < t_hi, a finite width."""
    lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    assume(math.isfinite(hi - lo))
    return lo, hi


CALLS = {name: call for name, call, _ in VECTORS}

#: Each entry point of VECTORS that follows the rule: (the start of its FloatingPointError's
#: message, the largest |entry| up to which it must return).  A linear map of n <= 8 grows an
#: entry at most 256-fold; a square or a shifted norm squares it.
RULE = {
    "wht_naive": ("wht_naive overflows float64", 1e300),
    "hybrid_wht": (NORM, 1e150),
    "sign_safe": (None, math.inf),
    "reconstruct": ("reconstruct overflows float64", 1e300),
    "prepare_state": (None, math.inf),
    "apply_hadamard_all": ("apply_hadamard_all overflows float64", 1e300),
    "measure_exact": ("measure_exact overflows float64", 1e150),
    "measure_sampled": ("measure_sampled overflows float64", 1e150),
    "integrate_sampled-fwht": ("integrate_sampled overflows float64", 1e300),
    "integrate_sampled-hybrid": (NORM, 1e150),
    "SampledFunction": (None, math.inf),
}
#: The entry points of VECTORS that follow the caller's error state.
FOLLOWS_CALLER = {"fwht"}
#: The preconditions that stay ValueErrors: the start of the message.
PRECONDITIONS = {
    "prepare_state": "state vector must have unit norm, got ",
    "measure_sampled": "squared amplitudes must sum to a positive number, got 0.0",
}
#: What a returned result is, beyond finite.
RESULTS = {
    "sign_safe": lambda v, r: isinstance(r, bool),
    "reconstruct": lambda v, r: isinstance(r, float),
    "prepare_state": lambda v, r: np.array_equal(r, v),
    "measure_exact": lambda v, r: np.array_equal(r, v * v),
    "measure_sampled": lambda v, r: r.sum() == 10,
    "SampledFunction": lambda v, r: np.array_equal(r.values, v),
}


def _numbers(result) -> np.ndarray:
    """The numbers a call returned: a hybrid_wht pair's output, a SampledFunction's samples."""
    if isinstance(result, tuple):
        result = result[0]
    return np.asarray(getattr(result, "values", result), dtype=float)


def _l1(v, scale: float) -> float:
    """scale * sum |v_k|, each term scaled first so that the sum rarely overflows (else inf)."""
    return sum(abs(x) * scale for x in v)


def test_every_vector_entry_point_has_a_documented_outcome():
    assert set(CALLS) == set(RULE) | FOLLOWS_CALLER


@pytest.mark.parametrize("name", sorted(RULE))
@given(v=VECTOR, state=STATE)
@example(v=[1.7e308, 1.7e308], state="warn")
@example(v=[1e200, 0.0], state="warn")
@example(v=[1e200, 0.0, 0.0, 0.0], state="warn")
def test_a_vector_entry_point_follows_the_overflow_rule(name, v, state):
    v = np.array(v)
    message, bound = RULE[name]
    with warnings.catch_warnings(), np.errstate(all=state):
        warnings.simplefilter("error")
        try:
            result = CALLS[name](v)
        except FloatingPointError as exc:
            assert message is not None and str(exc).startswith(message), str(exc)
            assert np.max(np.abs(v)) > bound
            return
        except ValueError as exc:
            assert str(exc).startswith(PRECONDITIONS.get(name, "no precondition")), str(exc)
            return
    assert np.isfinite(_numbers(result)).all()
    assert RESULTS.get(name, lambda v, r: _numbers(r).shape == v.shape)(v, result)


@pytest.mark.parametrize("call", [fwht, lambda v: differentiation_matrix(v.size).apply(v)],
                         ids=["fwht", "differentiation"])
@given(v=VECTOR, state=STATE)
@example(v=[1.7e308, 1.7e308], state="warn")
@example(v=[0.0, 4e306, 0.0, 4e306], state="raise")  # overflows in D's sum, not its products
def test_fwht_and_apply_follow_the_callers_error_state(call, v, state):
    v = np.array(v)
    with warnings.catch_warnings(), np.errstate(all=state, under="ignore"):
        warnings.simplefilter("error")
        # Each row of I_N sums to less than 1 in absolute value, so its product is finite.
        assert np.isfinite(integration_matrix(v.size).apply(v)).all()
        try:
            out = call(v)
        except (FloatingPointError, RuntimeWarning) as exc:
            assert (type(exc), str(exc)[:21]) == (
                FloatingPointError if state == "raise" else RuntimeWarning, "overflow encountered ")
            return
    assert state == "ignore" or np.isfinite(out).all()


@pytest.mark.parametrize("path", ["fwht", "hybrid"])
@given(v=VECTOR, domain=domains(), state=STATE)
@example(v=[9e285, 0.0], domain=(-4.1e22, 0.0), state="warn")
def test_integrate_sampled_follows_the_rule_and_equals_the_trapezoid(path, v, domain, state):
    # The fwht path against the closed form (cumsum(v) - v/2) h, to a bound on the
    # roundoff of its two transforms, the apply and the trapezoid's cumsum.
    v = np.array(v)
    width = domain[1] - domain[0]
    with warnings.catch_warnings(), np.errstate(all=state):
        warnings.simplefilter("error")
        try:
            out = integrate_sampled(v, domain, None if path == "fwht" else HybridConfig())
        except FloatingPointError as exc:
            assert str(exc) == "integrate_sampled overflows float64" or (
                path == "hybrid" and str(exc).startswith(NORM)), str(exc)
            top = float(np.max(np.abs(v)))
            assert top > (1e300 if path == "fwht" else 1e150) or top * width > 1e300
            return
    assert np.isfinite(out).all()
    if path == "fwht":
        with np.errstate(all="ignore"):
            expected = trapezoid_integral(v, width)
        n = v.size.bit_length() - 1
        # Below the normal range an operation errs by up to TINY/2 wherever it rounds: in
        # the trapezoid's h = width/N, and in each of the N-scaled spectra, times the width.
        bound = (4 * n + 4) * _l1(v, U * width) + _l1(v, TINY) + 4 * v.size * (width * TINY) + TINY
        if np.isfinite(expected).all():
            assert np.max(np.abs(out - expected)) <= bound


@given(v=VECTOR)
def test_fwht_equals_the_naive_oracle_and_is_its_own_inverse(v):
    v = np.array(v)
    N, n = v.size, v.size.bit_length() - 1
    with np.errstate(over="ignore", invalid="ignore"):
        once = fwht(v)
        twice = fwht(once)
    try:
        naive = wht_naive(v)
    except FloatingPointError:
        naive = None
    if naive is not None and np.isfinite(once).all():
        bound = (N + n + 3) * _l1(v, U / math.sqrt(N)) + N * TINY
        assert np.max(np.abs(once - naive)) <= bound
    if np.isfinite(twice).all():
        assert np.max(np.abs(twice - v)) <= 2 * (n + 3) * _l1(v, U) + N * TINY


@given(v=VECTOR)
def test_exact_hybrid_wht_equals_fwht_relative_to_its_norm(v):
    v = np.array(v)
    n = v.size.bit_length() - 1
    try:
        out, trace = hybrid_wht(v)
    except FloatingPointError as exc:
        assert str(exc).startswith(NORM)
        return
    assert np.max(np.abs(out - fwht(v))) <= 8 * (n + 4) * U * trace.norm


@given(point=st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
def test_the_ordering_permutation_takes_sequency_row_k_to_its_natural_row(point):
    # Natural row perm[k] at cell m, the synthesis of its unit vector, is sequency function k
    # at that cell's midpoint, which the recursive definition evaluates; both carry the
    # 1/sqrt(N) of the transform.  The inverse permutation maps perm[k] back to k.
    n, k, m = point
    N = 1 << n
    perm = ordering_permutation(n, WalshOrdering.NATURAL, WalshOrdering.SEQUENCY)
    midpoint = (2 * m + 1) / (2 * N)
    unit = np.zeros(N)
    unit[perm[k]] = 1.0
    assert reconstruct(unit, midpoint) == sequency_walsh_recursive(k, midpoint) / np.sqrt(N)
    assert ordering_permutation(n, WalshOrdering.SEQUENCY, WalshOrdering.NATURAL)[perm[k]] == k
