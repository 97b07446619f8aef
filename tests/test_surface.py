"""Every module-level function and class of the package, and every method and
property of its classes, has a caller.

A name counts as called when an ``ast.Name`` or ``ast.Attribute`` refers to
it somewhere in ``src/`` or ``perfbench/`` outside its own definition.
References from ``tests/`` do not count: a name only tests call is dead code.
Dunder methods are called by the language, so they are not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cfrpnet").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

# Names kept without a caller in src/ or perfbench/, each for its reason.
ALLOWED = {
    "mechanics.py:eurocode_strains": "acceptance criterion 1 pins the Eurocode 2 strains",
    "neuralnet.py:gradient": "acceptance criterion 3 checks backprop against finite differences through it",
    "neuralnet.py:loss_mse": "the float64 oracle the swarm objective tests compare against",
}


def _used_names(node) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _scan():
    """The package's definitions, and the names each part of every scanned file
    uses. A module-level definition is keyed (file, name, None), each method of
    a class (file, class, method), and the rest of a file (file, None, None)."""
    defined, used = [], {}
    for path in SCANNED:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        outside = set()
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS):
                outside |= _used_names(stmt)
                continue
            key = (path, stmt.name, None)
            methods = [s for s in stmt.body if isinstance(s, FUNCTIONS)] if isinstance(stmt, ast.ClassDef) else []
            # a class's decorators, bases and other statements; a function whole
            used[key] = set().union(*(_used_names(c) for c in ast.iter_child_nodes(stmt) if c not in methods))
            for method in methods:
                used[(path, stmt.name, method.name)] = _used_names(method)
            if path in PACKAGE:
                defined.append(key)
                defined += [(path, stmt.name, m.name) for m in methods if not _is_dunder(m.name)]
        used[(path, None, None)] = outside
    return defined, used


def _uncalled():
    """A module-level name is called from outside its whole definition, a
    method from outside its own body."""
    defined, used = _scan()
    uncalled = []
    for path, name, method in defined:
        if method is None:
            callers = (names for key, names in used.items() if key[:2] != (path, name))
        else:
            callers = (names for key, names in used.items() if key != (path, name, method))
        if not any((method or name) in names for names in callers):
            uncalled.append(f"{path.name}:{name}" + (f".{method}" if method else ""))
    return sorted(uncalled)


def test_every_definition_has_a_caller():
    assert _uncalled() == sorted(ALLOWED)
