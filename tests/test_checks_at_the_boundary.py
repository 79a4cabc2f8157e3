"""The structure checks run where a module is read.  Inside the package only
their definitions and the command line, which checks each module file it
reads, refer to `check_type_d`, `check_ainf`, `check_bigrading` and
`check_cfa_weights`: a module the package builds, as `build_cfd` builds
CFD, holds them by construction, and the tests run them on it."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))
CHECKS = {"check_type_d": "dmodules.py", "check_ainf": "dmodules.py",
          "check_bigrading": "torus.py", "check_cfa_weights": "torus.py"}
BOUNDARY = "cli.py"


def _references(tree):
    """(name, line) of every name, attribute or import alias that reads a check."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in CHECKS:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in CHECKS:
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rpartition(".")[2]
                if name in CHECKS:
                    yield name, node.lineno


def test_each_check_is_defined_once():
    defined = {node.name: path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.FunctionDef) and node.name in CHECKS}
    assert defined == CHECKS


def test_only_the_command_line_refers_to_the_checks():
    offenders = [f"{path.name}:{line} {name}" for path in SOURCES if path.name != BOUNDARY
                 for name, line in _references(ast.parse(path.read_text(), filename=str(path)))]
    assert not offenders, f"package code runs a structure check: {offenders}"
