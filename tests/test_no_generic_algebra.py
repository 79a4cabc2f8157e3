"""Modules read algebra products and differentials from the `AZBasis`
tables and coefficients as its indices: outside `strands` nothing calls
`multiply` or `differential`, builds a chord element (`a_of`,
`pair_idempotent`, `pinch`) or decomposes an element into the basis (a
`.decompose(...)` method call), and outside `strands` and `grading` nothing
asks an element for its idempotents (`left_right_pairs`)."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))
# name -> the modules that may call or import it
ALLOWED = {"multiply": {"strands"}, "differential": {"strands"},
           "a_of": {"strands"}, "pair_idempotent": {"strands"}, "pinch": {"strands"},
           "left_right_pairs": {"strands", "grading"}}
# method name -> the modules that may call it as `x.name(...)`; a plain
# `name(...)` call, such as satellite's `decompose(pc)`, is another function
ALLOWED_METHODS = {"decompose": {"strands"}}


def _calls(tree):
    """(name, line, is a method call) of every call, as `f(...)` or `x.f(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node.lineno, False
            elif isinstance(func, ast.Attribute):
                yield func.attr, node.lineno, True


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False) for alias in node.names)


def test_package_sources_found():
    assert len(SOURCES) > 10


def test_generic_algebra_stays_in_strands():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line, method in [*_calls(tree), *_imports(tree)]:
            allowed = ALLOWED.get(name) or (ALLOWED_METHODS.get(name) if method else None)
            if allowed is not None and path.stem not in allowed:
                offenders.append(f"{path.name}:{line} {name}")
    assert not offenders, f"generic algebra calls outside strands: {offenders}"
