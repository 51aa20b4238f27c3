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


def _readers(path, library):
    """(name, file, line) for the names a file reads from the library: every
    attribute load, the names it imports from wildinv, and, in the library's
    own files (library=True), every name load; a test's own function of the
    same name as a library one is no reader of it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) and library:
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, path, node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.level if library else (node.module or "").startswith("wildinv")):
            yield from ((alias.name, path, node.lineno) for alias in node.names)


def test_every_public_name_has_a_reader():
    # a public top-level function or class of src/ that nothing in src/,
    # tests/ or demos/ reads outside its own definition is an orphan; the
    # package's re-exports in __init__.py do not count as readers
    root = SRC.parent.parent
    defined = [
        (node.name, path, node.lineno, node.end_lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    used = {}
    for folder in (SRC, root / "tests", root / "demos"):
        for path in sorted(folder.glob("*.py")):
            if path != SRC / "__init__.py":
                for name, file, line in _readers(path, library=folder == SRC):
                    used.setdefault(name, []).append((file, line))
    assert len(defined) >= 140
    orphans = [
        f"{path.name}:{first} {name}"
        for name, path, first, last in defined
        if not any(not (file == path and first <= line <= last) for file, line in used.get(name, ()))
    ]
    assert not orphans, orphans


def test_every_name_in_all_is_bound_in_its_module():
    # a stale __all__ entry, such as a class that was removed, fails only
    # when `from module import *` runs; a name counts as bound when the
    # module defines, assigns or imports it at the top level
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(), filename=str(path)).body
        exported = [
            ast.literal_eval(node.value)
            for node in body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ]
        if not exported:
            continue
        bound = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                bound.update(t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name for alias in node.names)
        missing = [name for name in exported[0] if name not in bound]
        assert not missing, (path.name, missing)
        checked += 1
    assert checked >= 2


def test_only_addpoly_reads_the_monomial_expansion_of_the_pairing():
    # pairing_poly expands f_R into monomials for the identity check and the
    # tests; every other view of the pairing reads addpoly's term list, so
    # no report path builds the expansion (the re-export in __init__.py is
    # no reader)
    readers = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("addpoly.py", "__init__.py")
        for name, _, line in _readers(path, library=True)
        if name == "pairing_poly"
    ]
    assert not readers, readers


def _is_forwarder(node):
    """A function whose body (after any docstring) is one return of a call
    whose arguments are all its own parameters, read as they are."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    params = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    args = call.args + [k.value for k in call.keywords]
    return all(isinstance(a, ast.Name) and a.id in params for a in args)


def test_no_public_function_only_forwards_its_parameters():
    # a public top-level function that returns one call on its own
    # parameters, such as a module-level omega(M, v, w) returning
    # M.context.omega(v, w), is a second name for the call it makes;
    # callers make that call themselves
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
        and _is_forwarder(node)
    ]
    assert not found, found


def _run_at_import(node):
    """The nodes of a module that run when it is imported: everything but
    the bodies of its functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def _imported_modules(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_no_module_imports_argparse_or_gettext_at_import():
    # cli reads a well-formed argv without argparse, and argparse brings
    # gettext; only cli's fallback for help and usage errors imports it, in
    # the function that builds the parser
    slow = {"argparse", "gettext"}
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if slow & set(_imported_modules(_run_at_import(ast.parse(path.read_text(), filename=str(path)))))
    ]
    assert not found, found
    cli = ast.parse((SRC / "cli.py").read_text())
    assert "argparse" in set(_imported_modules(ast.walk(cli)))
