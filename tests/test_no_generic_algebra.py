"""Modules read algebra products and differentials from the `AZBasis`
tables: outside `strands` nothing calls `multiply` or `differential`, and
only `serialize`, the coefficient parser, calls `pinch`."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))
ALLOWED = {"multiply": {"strands"}, "differential": {"strands"},
           "pinch": {"strands", "serialize"}}


def _calls(tree):
    """Names of every function called, as `f(...)` or `module.f(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node.lineno
            elif isinstance(func, ast.Attribute):
                yield func.attr, node.lineno


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_package_sources_found():
    assert len(SOURCES) > 10


def test_generic_algebra_stays_in_strands():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in [*_calls(tree), *_imports(tree)]:
            if name in ALLOWED and path.stem not in ALLOWED[name]:
                offenders.append(f"{path.name}:{line} {name}")
    assert not offenders, f"generic algebra calls outside strands: {offenders}"
