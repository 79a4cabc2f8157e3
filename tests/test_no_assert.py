"""Math checks must raise, not assert: `python -O` strips assert statements."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))


def test_package_sources_found():
    assert len(SOURCES) > 10


def test_no_assert_statements_in_package():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not offenders, f"assert statements in bdecat: {offenders}"
