"""The staircase read and build paths against the slower paths they
replaced.

`build_cfd` builds its structure with `TypeDStructure.built`, skipping the
constructor's checks; the type D reader takes a fast path for one-entry idem
lists and checks names and integers inline; the CFK reader checks each field
inline and builds tuple records.  These tests hold each to the checked or
former path: on the shipped CFK fixtures and their mirrors, on generated
staircases, and on the edge cases of the file formats."""

import glob
import json
import os
import random

import pytest
from hypothesis import given, settings

from bdecat import serialize as ser
from bdecat.cfk2cfd import Arrow, CFKGenerator, build_cfd
from bdecat.dmodules import ModuleGenerator, TypeDStructure, check_type_d
from tests.conftest import CFK_NAMES, FIXTURES, load_fixture
from tests.helpers import cfk_from_json_oracle, cfk_to_json, generators_from_json_oracle
from tests.test_cfk2cfd import _mirror, _random_staircase, reduced_cfk


def _assert_built_as_checked(cfk):
    """build_cfd's structure passes the constructor's checks and
    check_type_d, and equals the one the constructor builds from the same
    records and edges: the generator table in the same order, the same
    delta list, every record in normal form and every edge a tuple."""
    cfd = build_cfd(cfk)
    checked = TypeDStructure(cfd.pmc, list(cfd.generators.values()), cfd.delta)
    assert list(checked.generators.items()) == list(cfd.generators.items())
    assert checked.delta == cfd.delta and all(type(e) is tuple for e in cfd.delta)
    for g in cfd.generators.values():
        assert g == ModuleGenerator(g.name, g.idempotent, g.m, a2=g.a2)
        assert type(g) is ModuleGenerator and type(g.idempotent) is frozenset
    check_type_d(cfd)


@pytest.mark.parametrize("name", CFK_NAMES)
def test_built_cfd_passes_the_constructor_checks_on_the_fixtures(name):
    cfk = load_fixture(name)
    _assert_built_as_checked(cfk)
    _assert_built_as_checked(_mirror(cfk))


@settings(max_examples=150, deadline=None)
@given(reduced_cfk())
def test_built_cfd_passes_the_constructor_checks_on_staircases(cfk):
    _assert_built_as_checked(cfk)


def test_reading_a_type_d_file_checks_nothing_twice(monkeypatch):
    """The reader checks each generator and edge as it reads it and builds
    with `built`: with the constructor and its edge check made to fail,
    every shipped type D fixture and a generated staircase CFD still read
    as the structures they hold."""
    cfd = build_cfd(_random_staircase(random.Random(5), 12))
    data = json.loads(ser.dump_type_d(cfd, {}))

    def refuse(*args):
        raise AssertionError("checked twice")
    monkeypatch.setattr(TypeDStructure, "__init__", refuse)
    monkeypatch.setattr(TypeDStructure, "_check_delta", refuse)
    read = ser.type_d_from_json(data)
    assert read.generators == cfd.generators and read.delta == cfd.delta
    typed = [p for p in sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
             if ser.sniff_kind(ser.load_file(p)) == "typed"]
    assert typed
    for path in typed:
        assert ser.read(path, "typed")[1].delta


def test_the_constructor_still_checks_every_edge():
    """`TypeDStructure(...)` keeps its checks for direct callers: a
    coefficient that does not fit its edge, and a repeated edge."""
    N = load_fixture("typed_triangle")
    gens = list(N.generators.values())
    src, i, dst = N.delta[0]
    with pytest.raises(ValueError) as info:
        TypeDStructure(N.pmc, gens, [(dst, i, src)])
    assert str(info.value) == f"coefficient on {dst}->{src} not compatible with idempotents"
    with pytest.raises(ValueError) as info:
        TypeDStructure(N.pmc, gens, N.delta + [N.delta[0]])
    assert str(info.value) == f"repeated delta edge {src}->{dst} (basis index {i})"


def _outcome(read, data):
    """read(data), or the type and message of what it raised."""
    try:
        return read(data)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc), str(exc)


def _assert_generators_read_as_the_oracle(items):
    got, want = (_outcome(read, items)
                 for read in (ser._generators_from_json, generators_from_json_oracle))
    assert got == want
    if isinstance(got, list):
        for g, w in zip(got, want):
            assert type(g) is ModuleGenerator and type(g.idempotent) is frozenset
            assert type(g.m) is type(w.m) is int and type(g.a2) is type(w.a2)


def _assert_cfk_reads_as_the_oracle(data):
    got, want = (_outcome(read, data) for read in (ser.cfk_from_json, cfk_from_json_oracle))
    assert got == want
    if not isinstance(got, tuple):
        records = got.generators + got.vertical + got.horizontal
        assert [type(r) for r in records] == [type(r) for r in want.generators +
                                              want.vertical + want.horizontal]


@settings(max_examples=100, deadline=None)
@given(reduced_cfk())
def test_readers_agree_with_the_oracles_on_generated_staircases(cfk):
    _assert_cfk_reads_as_the_oracle(json.loads(json.dumps(cfk_to_json(cfk))))
    data = json.loads(ser.dumps(ser.type_d_to_json(build_cfd(cfk))))
    _assert_generators_read_as_the_oracle(data["generators"])


def _gen(name="x", idem=(1,), m=0, **a):
    return {"name": name, "idem": list(idem), "m": m, **a}


GENERATOR_CASES = {
    "a null": [_gen(a=None), _gen("y", a="1/2")],
    "integer a": [_gen(a=3), _gen("y", (2,), a=-1)],
    "no a key": [_gen(), _gen("y", (2,), 1)],
    "a as a float": [_gen(a=1.5)],
    "a as a boolean": [_gen(a=True)],
    "true after 1": [_gen(), _gen("y", [True])],
    "1.0 after 1": [_gen(), _gen("y", [1.0])],
    "two-entry idems": [_gen(idem=(1, 2)), _gen("y", (2, 1)), _gen("z", (1, 2), 1)],
    "two-entry idem after its entries": [_gen(), _gen("y", (2,)), _gen("z", (2, 1))],
    "a repeated entry": [_gen(idem=(1, 1))],
    "a repeated entry after one entry": [_gen(), _gen("y", (1, 1))],
    "an empty idem": [_gen(idem=())],
    "idem as a string": [_gen(idem="1")],
    "idem as an integer": [{"name": "x", "idem": 1, "m": 0}],
    "a float m": [_gen(m=1.0)],
    "a boolean m": [_gen(m=True)],
    "a negative m": [_gen(m=-3)],
    "a non-string name": [_gen(name=3)],
    "a non-string name and a float m": [_gen(name=None, m=1.0)],
    "a bad a and a non-string name": [_gen(name=3, a="1/3")],
    "no idem and a non-string name": [{"name": 3, "m": 0}],
    "no name": [{"idem": [1], "m": 0}],
    "no m": [{"name": "x", "idem": [1]}],
}


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_type_d_generator_reader_agrees_with_the_oracle(case):
    _assert_generators_read_as_the_oracle(GENERATOR_CASES[case])


def _cfk(**edits):
    data = cfk_to_json(load_fixture("cfk_trefoil_right"))
    for key, (index, fields) in edits.items():
        data[key][index].update(fields)
    return data


CFK_CASES = {
    "as shipped": _cfk(),
    "a non-string name": _cfk(generators=(0, {"name": 3})),
    "a non-string name and a float maslov": _cfk(generators=(1, {"name": 3, "maslov": 1.0})),
    "a boolean maslov": _cfk(generators=(1, {"maslov": False})),
    "a float alexander": _cfk(generators=(2, {"alexander": -1.0})),
    "a boolean length": _cfk(vertical=(0, {"length": True})),
    "a float length": _cfk(horizontal=(0, {"length": 1.0})),
    "a non-string arrow end": _cfk(vertical=(0, {"src": 7})),
    "an unknown arrow end": _cfk(horizontal=(0, {"dst": "nope"})),
    "a float tau": {**_cfk(), "tau": 1.0},
    "no tau": {key: v for key, v in _cfk().items() if key != "tau"},
    "a non-string name and no maslov": {**_cfk(), "generators": [{"name": 3, "alexander": 0}]},
    "a float length and no dst": {**_cfk(), "vertical": [{"src": "b", "length": 1.0}]},
}


@pytest.mark.parametrize("case", sorted(CFK_CASES))
def test_cfk_reader_agrees_with_the_oracle(case):
    _assert_cfk_reads_as_the_oracle(CFK_CASES[case])


def test_cfk_records_are_tuples_that_print_and_hash_as_before():
    g, ar = CFKGenerator("a", 0, 1), Arrow("b", "c", 2)
    assert isinstance(g, tuple) and isinstance(ar, tuple)
    assert repr(g) == "CFKGenerator(name='a', maslov=0, alexander=1)"
    assert repr(ar) == "Arrow(src='b', dst='c', length=2)"
    # a frozen dataclass hashed the tuple of its fields
    assert hash(g) == hash(("a", 0, 1)) and hash(ar) == hash(("b", "c", 2))
    with pytest.raises(AttributeError):
        g.name = "b"
