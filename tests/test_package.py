import ast
from pathlib import Path

import geomis


def imported_public_names():
    tree = ast.parse(Path(geomis.__file__).read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    )


def test_all_lists_exactly_the_imported_names():
    assert sorted(geomis.__all__) == imported_public_names()
    for name in geomis.__all__:
        assert getattr(geomis, name) is not None, name
