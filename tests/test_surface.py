"""Every module-level function and class of the package has a caller.

A name counts as called when an ``ast.Name`` or ``ast.Attribute`` refers to
it somewhere in ``src/`` or ``perfbench/`` outside its own definition.
References from ``tests/`` do not count: a name only tests call is dead code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cfrpnet").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Names kept without a caller in src/ or perfbench/, each for its reason.
ALLOWED = {
    "mechanics.py:eurocode_strains": "acceptance criterion 1 pins the Eurocode 2 strains",
    "neuralnet.py:gradient": "acceptance criterion 3 checks backprop against finite differences through it",
    "neuralnet.py:loss_mse": "the float64 oracle the swarm objective tests compare against",
}


def _used_names(node) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _scan():
    """The package's module-level definitions, and the names each part of
    every scanned file uses, keyed by (file, definition name or None)."""
    defined, used = [], {}
    for path in SCANNED:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        outside = set()
        for stmt in tree.body:
            if isinstance(stmt, DEFINITIONS):
                used[(path, stmt.name)] = _used_names(stmt)
                if path in PACKAGE:
                    defined.append((path, stmt.name))
            else:
                outside |= _used_names(stmt)
        used[(path, None)] = outside
    return defined, used


def test_every_definition_has_a_caller():
    defined, used = _scan()
    uncalled = [f"{path.name}:{name}" for path, name in defined
                if not any(name in names for key, names in used.items() if key != (path, name))]
    assert sorted(uncalled) == sorted(ALLOWED)
