"""The library is what its commands run: every module-level function and
class under src/oddeuler, and every method other than a dunder, is named
by src/ code that is itself in use, and nothing there has a second name;
and no test module imports a name it never reads."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "oddeuler"

# kept although no src/ code names them: the partial-fraction engine of
# acceptance criterion 6, the rearrangement check README's findings cite,
# and the stream that perfbench times as a layer
UNCALLED = {"reciprocal_sum_closed_form", "finite_rearrangement_check", "PrefixStream"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# the reflected operators, which Python looks up under their own names
REFLECTED = {"__radd__", "__rmul__"}


def _names(nodes) -> set[str]:
    # every name the nodes refer to, and every attribute they read as
    # ".attr"; docstrings and comments hold no such nodes
    return {n.id if isinstance(n, ast.Name) else "." + n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _units() -> list[tuple]:
    # (key, owner, names used) per top-level statement and per method that
    # is not a dunder: key is (module, qualified name) for a definition and
    # None for any other statement, owner the key of the enclosing class
    units = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(stmt, DEFS):
                units.append((None, None, _names([stmt])))
                continue
            key, used = (path.stem, stmt.name), _names([stmt])
            if isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body
                           if isinstance(m, DEFS) and not m.name.startswith("__")]
                rest = [m for m in stmt.body if m not in methods]
                used = _names([*stmt.decorator_list, *stmt.bases, *rest])
                # a bare name in a class-level statement is a class attribute
                used |= {"." + n for n in _names(m for m in rest if not isinstance(m, DEFS))}
                units += [((path.stem, f"{stmt.name}.{m.name}"), key, _names([m]))
                          for m in methods]
            units.append((key, None, used))
    return units


def _refs(key: tuple, owner: tuple | None) -> set[str]:
    # how code names a definition: a function or class by name or as a
    # module's attribute, a method only as an attribute
    name = key[1].rsplit(".", 1)[-1]
    return {"." + name} if owner else {name, "." + name}


def _dead(units: list[tuple]) -> list[str]:
    # definitions that no statement in use names, other than their own:
    # an unpinned definition counts as in use only once something in use
    # names it, so what only dead code calls is dead too; a pinned class
    # is pinned with its methods
    live = {key for key, owner, _ in units
            if key is None or key[1] in UNCALLED or (owner and owner[1] in UNCALLED)}
    grew = True
    while grew:
        grew = False
        for key, owner, _ in units:
            if key in live or (owner is not None and owner not in live):
                continue
            if any(_refs(key, owner) & used for other, _, used in units
                   if other in live and other != key):
                live.add(key)
                grew = True
    return sorted(".".join(key) for key, _, _ in units if key not in live)


def test_every_definition_is_named_by_src_code_in_use():
    assert _dead(_units()) == []


def test_the_uncalled_names_are_defined_and_uncalled():
    # the exceptions are pinned: each is defined, and none has gained a
    # caller since (it would then leave the list)
    units = _units()
    assert UNCALLED <= {key[1] for key, _, _ in units if key}
    for name in UNCALLED:
        refs = {name, "." + name}
        assert not any(refs & used for key, _, used in units
                       if key is None or key[1].split(".")[0] != name), name


def _aliases() -> list[str]:
    # module- and class-level assignments whose value is a bare name or
    # attribute: a second name for something already named
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for body in [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]:
            for stmt in body:
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or \
                        not isinstance(stmt.value, (ast.Name, ast.Attribute)):
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                if not {ast.unparse(t) for t in targets} <= REFLECTED:
                    found.append(f"{path.name}:{stmt.lineno}: {ast.unparse(stmt)}")
    return found


def test_no_definition_has_a_second_name():
    assert _aliases() == []


def _unused_imports(path: Path) -> list[str]:
    # names a module's import statements bind, at any depth, that no
    # ast.Name in the module reads; "import a.b" binds a
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name.split(".")[0]: node.lineno
                          for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_test_module_imports_a_name_it_never_reads():
    assert [found for path in sorted(TESTS.glob("*.py")) for found in _unused_imports(path)] == []
