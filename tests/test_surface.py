"""Every module-level function and class of the package, and every method and
property of its classes, has a caller; every attribute its classes store has a
reader.

A name counts as called when an ``ast.Name`` or ``ast.Attribute`` refers to
it somewhere in ``src/`` or ``perfbench/`` outside its own definition.
References from ``tests/`` do not count: a name only tests call is dead code.
Dunder methods are called by the language, so they are not checked.

A stored attribute is a dataclass field (an annotated name in a class body) or
a ``self.X`` store in a method of a package class. It counts as read when
``src/`` or ``perfbench/`` holds an attribute load of its name on any base but
``self``, a ``self.X`` load of it inside the class that stores it, or a string
constant equal to it (dynamic access through ``attrgetter`` or ``getattr``).
Names are matched by spelling alone, which is the check's blind spot: a stored
name counts as read when any other object's attribute or any string shares it.
So it could not flag ``DatasetFormatError.row``, ``ObjectiveError.value`` and
``.iteration``, or ``OptimizationTrace.loudness`` while nothing read them:
``"row"`` and ``"iteration"`` are strings elsewhere, and ``RangeFlag.value``
and ``BaConfig.loudness`` are read.
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


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _unread():
    """Stored attributes of package classes, as ``file:Class.name``, that nothing reads."""
    stored, read, read_by_class = [], set(), {}
    for path in SCANNED:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and not _is_self(n.value):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            self_attributes = [n for n in ast.walk(cls) if isinstance(n, ast.Attribute) and _is_self(n.value)]
            read_by_class[(path, cls.name)] = {n.attr for n in self_attributes if isinstance(n.ctx, ast.Load)}
            if path in PACKAGE:
                fields = {s.target.id for s in cls.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
                names = fields | {n.attr for n in self_attributes if isinstance(n.ctx, ast.Store)}
                stored += [(path, cls.name, name) for name in names]
    return sorted(f"{path.name}:{cls}.{name}" for path, cls, name in stored
                  if name not in read and name not in read_by_class[(path, cls)])


def test_every_stored_attribute_has_a_reader():
    assert _unread() == []
