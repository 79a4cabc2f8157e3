import itertools
import json
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from bdecat import serialize as ser
from bdecat.cfk2cfd import IOTA0, CFKComplex, CFKGenerator, build_cfd
from bdecat.dmodules import ModuleGenerator, TypeDStructure, is_bounded
from bdecat.grothendieck import class_of
from bdecat.pmc import PointedMatchedCircle, ReebChord, split_pmc, torus_pmc
from bdecat.strands import az_basis
from bdecat.torus import check_bigrading, check_cfa_weights
from tests.conftest import (CFK_NAMES, DIAGRAM_NAMES, FIXTURES, PATTERN_NAMES,
                            fixture_path, load_fixture)
from tests.helpers import (TORUS_CHORDS, a_of, ainf_to_json, cfk_to_json,
                           class_by_generator, diagram_to_json, pair_idempotent,
                           pattern_to_json, pinch_coefficient)
from tests.test_cfk2cfd import _rename, reduced_cfk

ALL_FIXTURES = (CFK_NAMES + DIAGRAM_NAMES + PATTERN_NAMES + ["typed_triangle"])

DUMPERS = {
    "typed": ser.type_d_to_json,
    "pattern": pattern_to_json,
    "cfk": cfk_to_json,
    "diagram": diagram_to_json,
    "pmc": ser.pmc_to_json,
}


def test_parse_half():
    assert ser.parse_half("3/2") == 3
    assert ser.parse_half("-2") == -4
    assert ser.parse_half(4) == 8
    for bad in ("1/3", "x", 1.5, True):
        with pytest.raises(ser.FixtureError):
            ser.parse_half(bad)


def test_dump_half_roundtrip():
    for a2 in (3, -1, 14, 0):
        assert ser.parse_half(ser.dump_half(a2)) == a2


def test_parse_half_reads_what_fraction_reads():
    for text, a2 in (("1.5", 3), (" -3/2 ", -3), ("6/4", 3), ("+2", 4), ("-0", 0)):
        assert ser.parse_half(text) == a2
    with pytest.raises(ser.FixtureError):  # Fraction raises ZeroDivisionError
        ser.parse_half("1/0")


def test_modules_load_and_dump_without_fractions(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return Fraction(*args)
    monkeypatch.setattr(ser, "Fraction", counting)
    for name in PATTERN_NAMES + ["typed_triangle"]:
        kind, obj = ser.read(fixture_path(name))
        ser.dumps(DUMPERS[kind](obj))
    assert calls == []


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
    basis = az_basis(torus)
    named = ser.parse_coefficient(basis, "rho1", left, right)
    chordwise = ser.parse_coefficient(basis, "rho(1,2)", left, right)
    assert named == chordwise
    assert ser.dump_coefficient(basis, named) == "rho1"
    one = ser.parse_coefficient(basis, "1", left, left)
    assert ser.dump_coefficient(basis, one) == "1"
    with pytest.raises(ser.FixtureError):
        ser.parse_coefficient(basis, "1", left, right)
    with pytest.raises(ser.FixtureError):
        ser.parse_coefficient(basis, "rho(2,3)", left, right)
    with pytest.raises(ser.FixtureError):
        ser.parse_coefficient(basis, "sigma(1,2)", left, right)
    # an operation input: the chain fixes the right idempotent
    assert ser.parse_coefficient(basis, "rho(1,2)", left) == named
    assert ser.parse_coefficient(basis, "rho1", left) == named
    for bad in ("rho(1)", "rho(1,,2)", "rho(1,2,3)", "rho()", None):
        with pytest.raises(ser.FixtureError):
            ser.parse_coefficient(basis, bad, left, right)
        with pytest.raises(ser.FixtureError):
            ser.parse_coefficient(basis, bad, left)


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


def _keys_sorted(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def test_dumps_writes_sorted_json_one_record_per_line():
    # 3 000 generators take the one-call path for a list of records; a
    # joint text inside a string ("}, {", "], [") takes the record-by-record one
    big = {"generators": [{"name": f"g{i}", "idem": [1, 2], "m": i % 2, "a": f"{i}/2"}
                          for i in range(3000)], "delta": [], "bounded": True}
    odd = {"generators": [{"name": name, "idem": [1], "m": 0}
                          for name in ("x}, {y", "line\nbreak", "\u00e9t\u00e9", "z")],
           "class": {"1": [["1/2", -1]], "2": []}, "pmc": {"matching": [1, 2, 1, 2]}}
    for data in (big, odd, {}, [], {"b": {"x": []}, "a": [1, {"c": None}]}, "1/2",
                 {"rows": [[1, "], ["], [2]]}, [{"z": 1, "a": [{"y": 2, "b": 3}]}]):
        text = ser.dumps(data)
        assert json.loads(text) == data
        json.loads(text, object_pairs_hook=_keys_sorted)
        assert text.endswith("\n") and not text.endswith("\n\n") and text.isascii()
    for data in (big, odd):
        lines = [line.strip().removesuffix(",") for line in ser.dumps(data).splitlines()]
        records = [json.dumps(g, sort_keys=True) for g in data["generators"]]
        start = lines.index('"generators": [') + 1
        assert lines[start:start + len(records) + 1] == records + ["]"]
    assert ser.dumps(odd).splitlines()[:5] == [
        "{", '  "class": {', '    "1": [["1/2", -1]],', '    "2": []', "  },"]


def _coefficient_cases():
    """(pmc, expression, reference element at left or None, left, right):
    "1", every chord, every pair of chords and, on the torus, the eight
    names, from every left pair set to every right pair set or None."""
    torus = torus_pmc()
    named = {"iota0": pair_idempotent(torus, {1}), "iota1": pair_idempotent(torus, {2})}
    named.update((name, a_of(torus, rho, 0)) for name, rho in TORUS_CHORDS.items())
    for pmc in (torus, split_pmc(2)):
        n, k = pmc.num_points, pmc.genus
        chords = [ReebChord(s, e) for s in range(1, n + 1) for e in range(s + 1, n + 1)]
        sets = [(c,) for c in chords] + list(itertools.combinations(chords, 2))
        exprs = [("rho(" + ";".join(f"{c.start},{c.end}" for c in rho) + ")", rho)
                 for rho in sets]
        if pmc == torus:
            exprs += list(named.items())
        pair_sets = [frozenset(s) for s in itertools.combinations(range(1, 2 * k + 1), k)]
        elements = {}
        for expr, ref in exprs:
            try:
                elements[expr] = ref if expr in named else a_of(pmc, ref, 0)
            except ValueError:  # shared endpoints, or endpoints off the circle
                elements[expr] = None
        for left in pair_sets:
            elements["1"] = pair_idempotent(pmc, left)
            for right in pair_sets + [None]:
                for expr, el in elements.items():
                    yield pmc, expr, el, left, right


def test_parse_coefficient_matches_the_pinched_element():
    """The label lookup accepts and rejects what building the element and
    pinching it between left and right does, and returns its one index."""
    start, cases = time.perf_counter(), 0
    for pmc, expr, el, left, right in _coefficient_cases():
        cases += 1
        want = None if el is None else pinch_coefficient(pmc, el, left, right)
        try:
            got = (ser.parse_coefficient(az_basis(pmc), expr, left, right),)
        except ser.FixtureError:
            got = None
        assert got == (None if want is None else az_basis(pmc).decompose(want)), \
            (pmc, expr, left, right)
    assert cases == 17274
    assert time.perf_counter() - start < 1.0


def test_the_torus_circle_is_compared_per_module_not_per_edge(monkeypatch):
    dumped = {name: ser.type_d_to_json(build_cfd(load_fixture(name)))
              for name in ("cfk_trefoil_right", "cfk_torus34")}
    patterns = {name: load_fixture(name) for name in ("cfa_core", "cfa_with_ops")}
    calls = []
    eq = PointedMatchedCircle.__eq__
    monkeypatch.setattr(PointedMatchedCircle, "__eq__",
                        lambda self, other: calls.append(other) or eq(self, other))
    counts = {}
    for name, data in dumped.items():
        calls.clear()
        N = ser.type_d_from_json(data)
        assert ser.type_d_to_json(N) == data
        check_bigrading(N, 0)
        counts[name] = len(calls)
    assert [len(data["delta"]) for data in dumped.values()] == [7, 17]
    assert counts["cfk_trefoil_right"] == counts["cfk_torus34"] <= 3, counts
    for name, pattern in patterns.items():
        calls.clear()
        ops = ainf_to_json(pattern.cfa)
        M = ser.ainf_from_json(ops)
        assert ainf_to_json(M) == ops
        check_cfa_weights(M, pattern.winding)
        counts[name] = len(calls)
    assert [len(M.ops) for M in (p.cfa for p in patterns.values())] == [0, 1]
    assert counts["cfa_core"] == counts["cfa_with_ops"] <= 3, counts
    # a named element still needs the torus circle
    with pytest.raises(ser.FixtureError, match="needs the torus pmc"):
        ser.parse_coefficient(az_basis(split_pmc(2)), "rho1", frozenset({1, 2}))


def _assert_type_d_round_trip(cfd):
    """The dumped text of cfd reads back as equal generator records and the
    same delta list, and class_of, which sums the signs per (idempotent, a2)
    first, gives the class summed generator by generator."""
    back = ser.type_d_from_json(json.loads(ser.dumps(ser.type_d_to_json(cfd))))
    assert back.generators == cfd.generators
    assert back.delta == cfd.delta
    assert class_of(back) == class_of(cfd) == class_by_generator(cfd)


@pytest.mark.parametrize("name", CFK_NAMES)
def test_type_d_round_trip_on_the_cfk_fixtures(name):
    _assert_type_d_round_trip(build_cfd(load_fixture(name)))


@settings(max_examples=100, deadline=None)
@given(reduced_cfk())
def test_type_d_round_trip_on_generated_staircases(cfk):
    _assert_type_d_round_trip(build_cfd(cfk))


def _assert_writer_is_dumps(N):
    """dump_type_d writes the text dumps writes for the same members."""
    extra = {"class": ser.class_to_json(class_of(N)),
             "alexander_polynomial": [["-1/2", 1], ["0", -2]], "bounded": is_bounded(N)}
    for members in (extra, {}):
        assert ser.dump_type_d(N, members) == ser.dumps(ser.type_d_to_json(N) | members)


@settings(max_examples=100, deadline=None)
@given(reduced_cfk())
def test_type_d_writer_on_generated_staircases(cfk):
    _assert_writer_is_dumps(build_cfd(cfk))


# (fixture, renames): the figure-eight's a-e get names the encoder escapes;
# the right trefoil's a named like its vertical chain or its unstable chain
# makes that chain take a "'"
AWKWARD_NAMES = {
    "escaped": ("cfk_figure8", {"a": 'say "hi"', "b": "back\\slash", "c": "\u00f1and\u00fa",
                                "d": "bell\x07", "e": ""}),
    "vertical chain name": ("cfk_trefoil_right", {"a": "v[b>c]1"}),
    "unstable chain name": ("cfk_trefoil_right", {"a": "u1", "c": "\U0001d4b3"}),
}


@pytest.mark.parametrize("case", sorted(AWKWARD_NAMES))
def test_type_d_writer_escapes_names_as_dumps_does(case):
    fixture, names = AWKWARD_NAMES[case]
    cfk = load_fixture(fixture)
    for old, new in names.items():
        cfk = _rename(cfk, old, new)
    cfd = build_cfd(cfk)
    assert set(names.values()) <= set(cfd.generators)
    _assert_writer_is_dumps(cfd)


def test_type_d_writer_on_typed_files_and_records_without_a(torus):
    _assert_writer_is_dumps(load_fixture("typed_triangle"))
    _assert_writer_is_dumps(TypeDStructure(torus, [
        ModuleGenerator("x", {1}, 1), ModuleGenerator("y", {2}, 0, a2=-3)], []))


def _assert_normal(g, name, idem, m, a2):
    """g is the record the normalising constructor builds from the raw fields."""
    assert type(g) is ModuleGenerator and g == ModuleGenerator(name, idem, m, a2=a2)
    assert type(g.idempotent) is frozenset and type(g.m) is int
    assert g.a2 is None or type(g.a2) is int


@pytest.mark.parametrize("m", [-3, 0, 2, 5])
def test_read_and_built_records_are_in_normal_form(m):
    fields = [("x", [1], m, "3/2"), ("y", [2], m, "3/2"), ("z", [1], m + 1, 2),
              ("w", [2], m, None)]
    N = ser.type_d_from_json({"pmc": "torus", "delta": [], "generators": [
        {"name": n, "idem": idem, "m": gm, **({} if a is None else {"a": a})}
        for n, idem, gm, a in fields]})
    for n, idem, gm, a in fields:
        _assert_normal(N.generators[n], n, idem, gm, None if a is None else ser.parse_half(a))

    cfk = load_fixture("cfk_figure8")
    cfk = CFKComplex([CFKGenerator(g.name, g.maslov + m, g.alexander) for g in cfk.generators],
                     cfk.vertical, cfk.horizontal, cfk.tau)
    cfd = build_cfd(cfk)
    for g in cfk.generators:
        _assert_normal(cfd.generators[g.name], g.name, IOTA0, g.maslov, 2 * g.alexander)
    for g in cfd.generators.values():
        _assert_normal(g, g.name, g.idempotent, g.m, g.a2)
