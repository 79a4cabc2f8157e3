"""One type D writer in the package: `serialize.dump_type_d` writes every
type D file.  No module under `src/bdecat` calls `type_d_to_json` (the JSON
form the writer is tested against, which the benchmark's replay still
calls), and no `dumps` call is handed a type D file's members (a dict
literal with a "delta" key)."""

import ast
import pathlib

import bdecat

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))


def _name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _offences(source: str):
    """(line, what) of each type D file built outside `dump_type_d`."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _name(node.func)
        if name == "type_d_to_json":
            yield node.lineno, "type_d_to_json call"
        elif name == "dumps":
            for inner in ast.walk(node):
                keys = inner.keys if isinstance(inner, ast.Dict) else ()
                if any(isinstance(k, ast.Constant) and k.value == "delta" for k in keys):
                    yield node.lineno, "dumps of a dict with a delta key"


def test_the_check_sees_both_ways_of_building_a_type_d_file():
    old_cli = ("out = serialize.type_d_to_json(cfd)\n"
               "print(serialize.dumps(out))\n"
               "print(dumps({'pmc': 'torus', 'delta': [], 'generators': []}))\n")
    assert [line for line, _ in _offences(old_cli)] == [1, 3]


def test_only_dump_type_d_writes_a_type_d_file():
    offenders = [f"{path.name}:{line} {what}" for path in SOURCES
                 for line, what in _offences(path.read_text())]
    assert len(SOURCES) > 10
    assert not offenders, offenders
