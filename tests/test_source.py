"""Static checks on the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "wildinv"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so every check in src/ must be a
    # raise; the -O runs in test_cli.py only reach the paths they exercise
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
