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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_name_is_used_in_the_library():
    # a single-underscore function, class or module-level name that nothing
    # in src/ reads outside its own definition is an orphan: its callers
    # were removed or moved to tests/
    defined, used = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _private(node.name):
                defined.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.append((node.attr, path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                used.extend((alias.name, path.name, node.lineno) for alias in node.names)
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname for alias in node.names if alias.asname]
                defined.extend((name, path.name, node.lineno, node.lineno) for name in names if _private(name))
            defined.extend((t.id, path.name, node.lineno, node.end_lineno) for t in targets if _private(t.id))
    assert len(defined) >= 20
    orphans = [
        f"{file}:{first} {name}"
        for name, file, first, last in defined
        if not any(n == name and not (f == file and first <= line <= last) for n, f, line in used)
    ]
    assert not orphans, orphans
