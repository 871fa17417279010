"""The benchmark tracer's rebinding targets exist in the program.

perfbench/layers.py wraps (module, attribute) pairs of the walshode
modules; a pair that no longer exists is recorded as an absent layer whose
metrics read 0, so a rename would blind the trace without failing any run.
Its hooks also read attributes of what the wrapped calls take and return
(``cfg.mode``, ``trace.output``, ``trace.sub_resolution``,
``iterations_run``).  The file is parsed, or loaded without writing
bytecode, and never written.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets(name):
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {LAYERS}")


@pytest.mark.parametrize("name", ["SPAN_TARGETS", "HOT_TARGETS"])
def test_every_traced_name_exists(name):
    targets = _targets(name)
    assert targets
    missing = [
        f"walshode.{module}.{attr}"
        for module, attr, _ in targets
        if not hasattr(importlib.import_module(f"walshode.{module}"), attr)
    ]
    assert missing == []


def _load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_solve(monkeypatch, name, backend, settings):
    """The layer metrics of one traced 2-sweep solve of a builtin problem at N=16."""
    modules = ("cli", "expr", "solver", "calculus", "transform", "hybrid", "quantum")
    prog = SimpleNamespace(**{m: importlib.import_module(f"walshode.{m}") for m in modules})
    problem = prog.solver.builtin_problem(name, n=4)
    config = prog.solver.SolverConfig(n_max=2, tol=0.0, backend=backend, **settings)
    tracer = _load_layers(monkeypatch).Tracer()
    tracer.install(prog, problem)
    try:
        tracer.run_op(lambda: prog.solver.picard_solve(problem, config))
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert tracer.mismatches == []
    metrics = tracer.layer_metrics(1, 0.0)
    assert metrics["solver.sweeps"] == 2
    assert metrics["calculus.integrate_calls"] == 2 * problem.m
    assert prog.solver.picard_solve is importlib.import_module("walshode").picard_solve
    return metrics


# A 2-sweep Riccati solve at N=16: each sweep runs one forward and one
# inverse transform, N*log2(N) = 64 additions each, or 8N = 128 sampled ops
# (7N = 112 exact ones).
@pytest.mark.parametrize("backend, settings, classical_ops, fwht_calls, shots", [
    ("classical", {}, 0, 4, 0),
    ("hybrid-sampled", {"shots": 1000, "seed": 3}, 4 * 128, 0, 4 * 1000),
    ("hybrid-exact", {}, 4 * 112, 0, 0),
])
def test_tracer_reads_every_traced_value(monkeypatch, backend, settings,
                                         classical_ops, fwht_calls, shots):
    metrics = _traced_solve(monkeypatch, "riccati", backend, settings)
    assert metrics["hybrid.classical_ops"] == classical_ops
    assert metrics["transform.fwht_calls"] == fwht_calls
    assert metrics["transform.additions"] == fwht_calls * 64
    assert metrics["quantum.shots"] == shots


def test_tracer_reads_a_system_transform_by_transform(monkeypatch):
    # Beer's system (m=2): one forward and one inverse transform per variable
    # and sweep, 8 calls of 64 additions, each checked by the tracer on its own.
    metrics = _traced_solve(monkeypatch, "beer_system", "classical", {})
    assert metrics["transform.fwht_calls"] == 8
    assert metrics["transform.additions"] == 8 * 64
    assert metrics["hybrid.classical_ops"] == metrics["quantum.shots"] == 0
