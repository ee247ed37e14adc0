"""The package's public export list."""

import ast
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
