"""Rules on the package source itself."""

import ast
import importlib
import inspect
from pathlib import Path

import dihedral_mckay

MODULES = sorted(Path(dihedral_mckay.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    """``python -O`` strips asserts, so no check in the package may be one."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"


def test_no_check_in_the_package_is_an_assertion_error():
    """A failed certificate raises a named internal failure: no exception
    class of the package derives from AssertionError, and nothing in the
    package raises a bare AssertionError."""
    found = []
    for path in MODULES:
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"dihedral_mckay.{path.stem}")
        found += [
            f"{path.name}: class {name}"
            for name, obj in inspect.getmembers(module, inspect.isclass)
            if obj.__module__ == module.__name__ and issubclass(obj, AssertionError)
        ]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert not found, f"AssertionError in the package: {found}"


def _references(tree, skip):
    """Identifiers loaded as names or attributes in tree, outside the node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_definition_is_used_in_the_package():
    """Code that only tests call is dead weight: each module-level function
    or class, public or private, must be referenced somewhere in the
    package outside its own definition."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES
    }
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(node.name in _references(t, node) for t in trees.values()):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, f"definitions nothing in the package uses: {unused}"
