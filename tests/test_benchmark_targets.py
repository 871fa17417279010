"""The benchmark tracer's rebinding targets exist in the program.

perfbench/layers.py wraps (module, attribute) pairs of the walshode
modules; a pair that no longer exists is recorded as an absent layer whose
metrics read 0, so a rename would blind the trace without failing any run.
The file is parsed, not imported, and never written.
"""

import ast
import importlib
from pathlib import Path

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
