"""Checks on the package source itself."""

import ast
from pathlib import Path

import strictform

SRC = Path(strictform.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so input validation must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
