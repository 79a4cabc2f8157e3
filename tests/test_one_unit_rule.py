"""Strict unitality is written once in the package: `AInfModule.__init__`
puts m_2(x, I) = x into the operation table that `eval_m` and `box_tensor`
both read.  So no other function under `src/bdecat` looks up a unit I(s)
by its label, `by_label[(), s]` or `by_label.get(((), s))`, except the
coefficient parser, which reads "1" as I(s)."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))
ALLOWED = {("dmodules.py", "AInfModule.__init__"), ("serialize.py", "parse_coefficient")}


def _is_unit_label(node) -> bool:
    """A tuple literal whose first entry is the empty tuple: the label of an
    idempotent, which has no chord."""
    return (isinstance(node, ast.Tuple) and bool(node.elts)
            and isinstance(node.elts[0], ast.Tuple) and not node.elts[0].elts)


def _is_by_label(node) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "by_label")
            or (isinstance(node, ast.Name) and node.id == "by_label"))


def _unit_lookups(source: str):
    """(qualified function name, line) of each unit label looked up in a
    `by_label` table, by subscript or by `.get`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Subscript) and _is_by_label(node.value) \
                and _is_unit_label(node.slice):
            found.append((scope, node.lineno))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and _is_by_label(node.func.value) \
                and node.args and _is_unit_label(node.args[0]):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_check_sees_both_ways_of_looking_up_a_unit():
    old_box = ("def box_tensor(M, N):\n"
               "    for xn, s, _, _ in M.generators.values():\n"
               "        unit = N.basis.by_label[(), s]\n"
               "def parse(basis, left):\n"
               "    return basis.by_label.get(((), left))\n"
               "def chord(basis, rho, left):\n"
               "    return basis.by_label[rho, left], by_label.get((rho, left))\n")
    assert _unit_lookups(old_box) == [("box_tensor", 3), ("parse", 5)]


def test_only_the_module_constructor_and_the_parser_look_up_a_unit():
    seen = {(path.name, scope) for path in SOURCES for scope, _ in _unit_lookups(path.read_text())}
    assert len(SOURCES) > 10
    assert seen <= ALLOWED, seen
    assert ("dmodules.py", "AInfModule.__init__") in seen
