import json
import os
from fractions import Fraction

import pytest

from bdecat import serialize as ser
from bdecat.pmc import torus_pmc
from bdecat.strands import az_basis
from tests.conftest import (CFK_NAMES, DIAGRAM_NAMES, FIXTURES, PATTERN_NAMES,
                            fixture_path)

ALL_FIXTURES = (CFK_NAMES + DIAGRAM_NAMES + PATTERN_NAMES + ["typed_triangle"])

DUMPERS = {
    "typed": ser.type_d_to_json,
    "pattern": ser.pattern_to_json,
    "cfk": ser.cfk_to_json,
    "diagram": ser.diagram_to_json,
    "pmc": ser.pmc_to_json,
}


def test_parse_half():
    assert ser.parse_half("3/2") == Fraction(3, 2)
    assert ser.parse_half("-2") == Fraction(-2)
    assert ser.parse_half(4) == Fraction(4)
    for bad in ("1/3", "x", 1.5, True):
        with pytest.raises(ser.FixtureError):
            ser.parse_half(bad)


def test_dump_half_roundtrip():
    for v in (Fraction(3, 2), Fraction(-1, 2), Fraction(7), Fraction(0)):
        assert ser.parse_half(ser.dump_half(v)) == v


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_roundtrip_is_byte_stable(name):
    data = ser.load_file(fixture_path(name))
    kind = ser.sniff_kind(data)
    obj = ser.KIND_LOADERS[kind](data)
    once = DUMPERS[kind](obj)
    again = DUMPERS[kind](ser.KIND_LOADERS[kind](once))
    assert ser.dumps(once) == ser.dumps(again)


def test_named_pmc_and_matching_agree():
    assert ser.pmc_from_json("torus") == torus_pmc()
    assert ser.pmc_from_json({"matching": [1, 2, 1, 2]}) == torus_pmc()
    with pytest.raises(ser.FixtureError):
        ser.pmc_from_json("klein_bottle")


def test_coefficient_expressions(torus):
    left, right = frozenset({1}), frozenset({2})
    named = ser.parse_coefficient(torus, "rho1", left, right)
    chordwise = ser.parse_coefficient(torus, "rho(1,2)", left, right)
    assert named == chordwise
    basis = az_basis(torus)
    assert ser.dump_coefficient(basis, basis.decompose(named)) == "rho1"
    one = ser.parse_coefficient(torus, "1", left, left)
    assert ser.dump_coefficient(basis, basis.decompose(one)) == "1"
    with pytest.raises(ser.FixtureError):
        ser.parse_coefficient(torus, "1", left, right)
    with pytest.raises(ser.FixtureError):
        ser.parse_coefficient(torus, "rho(2,3)", left, right)
    with pytest.raises(ser.FixtureError):
        ser.parse_coefficient(torus, "sigma(1,2)", left, right)
    # an operation input: the chain fixes the right idempotent
    assert ser.parse_coefficient(torus, "rho(1,2)", left) == named
    assert ser.parse_coefficient(torus, "rho1", left) == named
    for bad in ("rho(1)", "rho(1,,2)", "rho(1,2,3)", "rho()", None):
        with pytest.raises(ser.FixtureError):
            ser.parse_coefficient(torus, bad, left, right)
        with pytest.raises(ser.FixtureError):
            ser.parse_coefficient(torus, bad, left)


def test_read_checks_the_kind():
    triangle = fixture_path("typed_triangle")
    assert ser.read(triangle, "typed", "ainf")[0] == "typed"
    kind, module = ser.read(fixture_path("cfa_core"), "typed", "ainf")
    assert kind == "ainf" and module.ops == []
    with pytest.raises(ser.FixtureError,
                       match="typed_triangle.json: expected a pattern fixture, found typed"):
        ser.read(triangle, "pattern")


def test_sniff_kind():
    assert ser.sniff_kind({"delta": [], "generators": [], "pmc": "torus"}) == "typed"
    assert ser.sniff_kind({"ops": [], "generators": [], "pmc": "torus"}) == "pattern"
    assert ser.sniff_kind({"tau": 0, "generators": []}) == "cfk"
    assert ser.sniff_kind({"points": [], "genus": 1}) == "diagram"
    assert ser.sniff_kind({"matching": [1, 2, 1, 2]}) == "pmc"
    with pytest.raises(ser.FixtureError):
        ser.sniff_kind({"something": 1})


def test_all_shipped_fixtures_load():
    for fname in sorted(os.listdir(FIXTURES)):
        data = ser.load_file(os.path.join(FIXTURES, fname))
        kind = ser.sniff_kind(data)
        assert ser.KIND_LOADERS[kind](data) is not None


def test_dumps_is_the_indented_sorted_json_text():
    # 3 000 generators make tens of thousands of encoder chunks, so the
    # pieces dumps joins end and start mid-structure
    big = {"generators": [{"name": f"g{i}", "idem": [1, 2], "m": i % 2, "a": f"{i}/2"}
                          for i in range(3000)], "delta": [], "bounded": True}
    for data in (big, {}, [], {"b": {"x": []}, "a": [1, {"c": None}]}, "1/2"):
        assert ser.dumps(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"
