"""Each module of the package defines every name in its `__all__` and uses
every name it imports (a name in `__all__` counts as a use: a re-export)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "freecone"


def _bound_by_import(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _defined_at_top(tree):
    names = set(_bound_by_import(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_exports_are_defined_and_imports_are_used():
    problems = []
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exports = _exports(tree)
        defined = _defined_at_top(tree)
        problems += [f"{path.name}: __all__ names undefined {name!r}" for name in exports
                     if name not in defined]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exports)
        problems += [f"{path.name}: {name!r} is imported but unused"
                     for name in _bound_by_import(tree) if name not in used]
    assert problems == []


def _private_definitions(tree):
    """Module-level private names and private methods, with their nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _all_references(trees):
    return [(mod, name, line) for mod, tree in trees.items() for name, line in _references(tree)]


def test_private_names_are_referenced():
    """A private name or method that nothing outside its own definition
    reads is dead code left behind."""
    trees = _trees()
    refs = _all_references(trees)
    unused = []
    for mod, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(
                name == rname and (rmod != mod or not node.lineno <= line <= node.end_lineno)
                for rmod, rname, line in refs
            ):
                unused.append(f"{mod}: {name}")
    assert unused == []


def test_mask_methods_have_callers_in_the_package():
    """Every public `_mask`/`_masks` method of Matroid and ConeMatroid is
    read somewhere in the package outside its own definition; one that only
    the tests call belongs in tests/oracles.py."""
    trees = _trees()
    refs = _all_references(trees)
    checked, uncalled = [], []
    for mod, cls in (("core.py", "Matroid"), ("cone.py", "ConeMatroid")):
        (klass,) = [n for n in trees[mod].body if isinstance(n, ast.ClassDef) and n.name == cls]
        for item in klass.body:
            if not (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and item.name.endswith(("_mask", "_masks"))):
                continue
            checked.append(item.name)
            if not any(
                name == item.name and (rmod != mod or not item.lineno <= line <= item.end_lineno)
                for rmod, name, line in refs
            ):
                uncalled.append(f"{cls}.{item.name}")
    assert "covers_mask" in checked
    assert uncalled == []


def _named_sites(node, scope=""):
    """("call", function, name) for every call of a plain or dotted name and
    ("raise", function, name) for every raise of a name, where function is
    the qualified name of the innermost enclosing def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _named_sites(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            yield "call", scope, func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
        elif isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield "raise", scope, getattr(exc, "id", None)
        yield from _named_sites(child, scope)


def test_one_gate_checks_the_axioms():
    """Matroid.__init__ is the one place where a family is checked against
    the lattice axioms: no builder calls validate_axioms or raises
    AxiomViolation itself, so none can skip or duplicate the check."""
    sites = [
        (kind, f"{mod}:{func}")
        for mod, tree in _trees().items()
        for kind, func, name in _named_sites(tree)
        if (kind, name) in {("call", "validate_axioms"), ("raise", "AxiomViolation")}
    ]
    assert sorted(sites) == [("call", "core.py:Matroid.__init__"),
                             ("raise", "core.py:Matroid.__init__")]
