"""The package's public export list and the modules it imports."""

import ast
import sys
from pathlib import Path

import maxcover


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(maxcover.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_names_resolve_and_match_the_imports():
    assert len(set(maxcover.__all__)) == len(maxcover.__all__)
    for name in maxcover.__all__:
        assert hasattr(maxcover, name), name
    assert set(maxcover.__all__) == imported_public_names()


def test_no_module_imports_a_name_it_never_reads():
    for path in sorted(Path(maxcover.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # imports its names to export them
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - read, (path.name, sorted(imported - read))


def test_every_top_level_definition_is_exported_or_read():
    # A definition counts as read where a package module names it, reads it as
    # an attribute, or holds it as a string (the CLI keeps handler names so).
    defined, read = {}, set()
    for path in sorted(Path(maxcover.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unused = {name: module for name, module in defined.items() if name not in read and name not in maxcover.__all__}
    assert not unused, unused


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "maxcover"}
    for path in sorted(Path(maxcover.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []  # a relative import is the package's
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
