"""`diagram.enumerate_generators` lists every generator one by one; it is the
oracle the tests compare the beta sweep of `enumerated_class` with.  Inside
the package only its own definition may name it: no call, attribute or
import refers to it."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))
ORACLE = "enumerate_generators"


def _references(tree):
    """Lines of every name, attribute or import alias that reads ORACLE."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == ORACLE:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == ORACLE:
            yield node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (node.lineno for alias in node.names
                        if alias.name.rpartition(".")[2] == ORACLE)


def test_the_oracle_is_defined_once():
    defined = [path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.FunctionDef) and node.name == ORACLE]
    assert defined == ["diagram.py"]


def test_no_package_code_refers_to_the_oracle():
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in _references(ast.parse(path.read_text(), filename=str(path)))]
    assert not offenders, f"package code refers to {ORACLE}: {offenders}"
