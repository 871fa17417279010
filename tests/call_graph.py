"""Which public names of the package reach a given helper, read from its source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "walshode"


def public_callers(targets: set[str]) -> set[str]:
    """Every public function or method (qualified by its class) that calls one of targets
    by name, directly or through private functions; a class's __post_init__ is the class."""
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
    helpers = set(targets)  # and, as found, every private function that reaches one
    while True:
        reaching = {name for name, called in calls.items() if called & helpers}
        private = {name for name in reaching if name.startswith("_")}
        if private <= helpers:
            break
        helpers |= private
    return {name.removesuffix(".__post_init__") for name in reaching - helpers}
