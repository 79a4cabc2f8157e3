"""The oracles the tests compare the package's fast paths with:
`diagram.enumerate_generators` lists every generator one by one, against
the beta sweep of `enumerated_class`, and `diagram.h1_rel_order_oracle`
takes |H_1(Y, dY)| from the minors of the alpha-circle rows, against the
column reduction of `homology_kernel`.  Inside the package only their own
definitions may name them: no call, attribute or import refers to one."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))
ORACLES = ("enumerate_generators", "h1_rel_order_oracle")


def _references(tree):
    """(line, name) of every name, attribute or import alias that reads an
    oracle."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ORACLES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in ORACLES:
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((node.lineno, name) for alias in node.names
                        if (name := alias.name.rpartition(".")[2]) in ORACLES)


def test_the_oracle_is_defined_once():
    defined = sorted((node.name, path.name) for path in SOURCES
                     for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                     if isinstance(node, ast.FunctionDef) and node.name in ORACLES)
    assert defined == [(name, "diagram.py") for name in sorted(ORACLES)]


def test_no_package_code_refers_to_the_oracle():
    offenders = [f"{path.name}:{line} {name}" for path in SOURCES
                 for line, name in _references(ast.parse(path.read_text(), filename=str(path)))]
    assert not offenders, f"package code refers to an oracle: {offenders}"
