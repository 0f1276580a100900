"""Rules on the package source itself."""

import ast
from pathlib import Path

import dihedral_mckay


def test_no_assert_statements_in_package():
    """``python -O`` strips asserts, so no check in the package may be one."""
    found = []
    for path in sorted(Path(dihedral_mckay.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"
