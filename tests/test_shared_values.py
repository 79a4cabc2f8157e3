"""Shared instances and trusted construction paths.

A named circle is built once and shared, so every immutable value type must
survive `copy`, `deepcopy` and `pickle` as an equal value, and a copy of a
structure that holds a shared circle must leave that circle alone.  The
K0 classes, the beta sweep, the chord sets of A(Z) and the selftest's random
grading draws each skip a check or a copy that their construction makes
unnecessary; the tests here hold each of them to the checked path."""

import ast
import copy
import importlib
import itertools
import json
import pathlib
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import bdecat
from bdecat import serialize
from bdecat.diagram import (BorderedDiagram, DiagramPoint, enumerate_generators,
                            enumerated_class)
from bdecat.dmodules import ModuleGenerator
from bdecat.grading import GradingElement
from bdecat.grothendieck import ExteriorClass, LaurentHalf, class_from_terms
from bdecat.pmc import (NAMED_PMCS, MalformedMatching, PointedMatchedCircle,
                        ReebChord, split_pmc, torus_pmc)
from bdecat.selfcheck import _random_gz_element
from bdecat.strands import StrandsGenerator, _chord_sets, az_basis, basis_of_AZ
from tests.helpers import checked_grading
from tests.test_grading import GENUS2_CLASSES

SOURCES = sorted(pathlib.Path(bdecat.__file__).parent.glob("*.py"))
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _copies(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


VALUES = {
    "circle": torus_pmc(),
    "split2": split_pmc(2),
    "chord": ReebChord(1, 3),
    "strands generator": StrandsGenerator(4, (1, 2), (2, 4), (4, 2)),
    "algebra element": basis_of_AZ(split_pmc(2), 0)[-1],
    "grading element": GradingElement(2, (1, 1, 1)),
    "module generator": ModuleGenerator("x'", frozenset({1, 3}), 1, -3),
    "module generator without a2": ModuleGenerator("y", frozenset({2}), 0),
    "diagram point": DiagramPoint(("circle", 2), 3, -1, 7),
    "polynomial": LaurentHalf(((-1, 2), (4, -1))),
}


@pytest.mark.parametrize("name", VALUES)
def test_every_value_type_copies_and_pickles_to_an_equal_value(name):
    value = VALUES[name]
    for other in _copies(value):
        assert other == value and type(other) is type(value)
        assert hash(other) == hash(value) and repr(other) == repr(value)


def test_a_class_copies_and_pickles_to_an_equal_class():
    value = ExteriorClass(2, {frozenset({1, 3}): LaurentHalf(((0, -2),)),
                              frozenset({2, 4}): LaurentHalf(((-1, 1), (3, 1)))})
    for other in _copies(value):
        assert other == value and type(other) is ExteriorClass


def test_the_named_circles_are_one_shared_instance_each():
    assert torus_pmc() is torus_pmc() is NAMED_PMCS["torus"]() is NAMED_PMCS["split1"]()
    assert split_pmc(2) is split_pmc(2) is NAMED_PMCS["split2"]()
    assert split_pmc(3) is NAMED_PMCS["split3"]()
    for shared, matching in ((torus_pmc(), (1, 2, 1, 2)),
                             (split_pmc(2), (1, 2, 1, 2, 3, 4, 3, 4)),
                             (split_pmc(3), (1, 2, 1, 2, 3, 4, 3, 4, 5, 6, 5, 6))):
        fresh = PointedMatchedCircle(matching)
        assert fresh is not shared and fresh == shared
        assert hash(fresh) == hash(shared) and repr(fresh) == repr(shared)
    for _ in range(2):  # a failed build is not kept
        with pytest.raises(MalformedMatching):
            split_pmc(4)


def _points(spec):
    return [DiagramPoint(alpha, beta, sign, i) for i, (alpha, beta, sign) in enumerate(spec)]


def test_a_diagram_on_a_shared_circle_deep_copies_and_leaves_the_circle_alone():
    shared = split_pmc(2)
    d = BorderedDiagram(shared, 3, 1, _points([
        (("arc", 1), 1, 1), (("arc", 1), 1, -1), (("arc", 3), 1, 1), (("circle", 1), 2, -1),
        (("arc", 2), 2, 1), (("arc", 4), 3, -1), (("circle", 1), 3, 1)]))
    cls = enumerated_class(d)
    d.circle_reduction  # the cached reduction is copied with the diagram
    for other in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert other == d and other.net_signs == d.net_signs
        assert other.circle_reduction == d.circle_reduction
        assert enumerated_class(other) == cls
    assert d.pmc is shared is split_pmc(2)
    assert shared.matching == (1, 2, 1, 2, 3, 4, 3, 4)
    assert shared.points_of_pair(3) == (5, 7)


def test_a_type_d_structure_copies_once_its_basis_has_built_its_tables():
    N = serialize.type_d_from_json(json.loads((FIXTURES / "typed_triangle.json").read_text()))
    basis = az_basis(N.pmc)
    basis.products, basis.by_left  # tables held in read-only mappings
    for other in (copy.deepcopy(N), pickle.loads(pickle.dumps(N))):
        assert other.basis.elements == basis.elements
        assert dict(other.basis.products) == dict(basis.products)
        assert other.generators == N.generators and other.delta == N.delta
    assert N.pmc is torus_pmc()


def _public_sum(genus, terms):
    """The class summed term by term through the public constructors and `+`,
    each of which drops zeros."""
    total = ExteriorClass(genus)
    for s, e, c in terms:
        total = total + ExteriorClass(genus, {frozenset(s): LaurentHalf.from_dict({e: c})})
    return total


# few subsets and exponents, and coefficients -2..2, so repeated subsets,
# several exponents per subset, zero counts and cancelling sums are common
TERMS = st.lists(st.tuples(st.sampled_from([(), (1,), (2,), (1, 3), (2, 4)]),
                           st.integers(-2, 2), st.integers(-2, 2)), max_size=12)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(terms=TERMS)
@example(terms=[((2,), 0, 1), ((2,), 2, -1), ((2,), 2, 1), ((2,), 0, -1), ((1,), 4, 3)])
@example(terms=[((1, 3), -1, 2), ((1, 3), 1, 0), ((1, 3), -1, -2)])
@example(terms=[((1,), 0, 0), ((2,), 0, 0)])
def test_class_from_terms_equals_the_sum_through_the_public_constructors(terms):
    cls = class_from_terms(2, terms)
    assert cls == _public_sum(2, terms)
    assert all(cls.coeffs.values()) and all(
        p.coeffs == tuple(sorted(p.coeffs)) and all(c for _, c in p.coeffs)
        for p in cls.coeffs.values())


def test_scale_by_one_is_the_polynomial_itself():
    p = LaurentHalf(((-1, 2), (4, -1)))
    assert p.scale(1) is p
    assert p.scale(-1) == -p and p.scale(3) == LaurentHalf(((-1, 6), (4, -3)))
    assert p.scale(0) == LaurentHalf() and not p.scale(0)


def _oracle_class(d):
    """[CFD(H)] summed over the generators `enumerate_generators` lists."""
    arcs = frozenset(range(1, 2 * d.k + 1))
    return class_from_terms(d.k, ((arcs - g.occupied, 0, g.sign)
                                  for g in enumerate_generators(d)))


@st.composite
def cancelling_diagrams(draw):
    """Diagrams whose betas meet most curves with net sign +-1 or 0, and some
    (curve, beta) twice with opposite signs: 2 x 2 blocks of equal or
    opposite signs make partial counts cancel to 0 in the middle of the
    sweep."""
    pmc = draw(st.sampled_from([torus_pmc(), split_pmc(2)]))
    g = draw(st.integers(pmc.genus + 1, 5))
    curves = [("circle", i) for i in range(1, g - pmc.genus + 1)]
    curves += [("arc", i) for i in range(1, 2 * pmc.genus + 1)]
    spec = []
    for beta in range(1, g + 1):
        for alpha in curves:
            for sign in draw(st.sampled_from([(), (1,), (-1,), (1, -1), (1, -1, 1)])):
                spec.append((alpha, beta, sign))
    return BorderedDiagram(pmc, g, g - pmc.genus, _points(spec))


# betas 1 and 2 meet both circles with sign +1, so the state holding the two
# circles cancels to 0 after beta 2, beside states that do not
CANCELS_AFTER_BETA_2 = BorderedDiagram(torus_pmc(), 3, 2, _points([
    (("circle", 1), 1, 1), (("circle", 2), 1, 1), (("circle", 2), 1, -1),
    (("circle", 2), 1, 1), (("arc", 1), 1, 1),
    (("circle", 1), 2, 1), (("circle", 2), 2, 1), (("arc", 2), 2, -1),
    (("arc", 1), 3, 1), (("arc", 1), 3, 1), (("arc", 1), 3, -1), (("arc", 2), 3, -1),
    (("circle", 2), 3, 1)]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(d=cancelling_diagrams())
@example(d=CANCELS_AFTER_BETA_2)
def test_the_sweep_equals_the_enumeration_when_partial_counts_cancel(d):
    assert enumerated_class(d) == _oracle_class(d)


def test_the_cancelling_example_has_a_nonzero_class():
    assert enumerated_class(CANCELS_AFTER_BETA_2)


def _records():
    """The tuple record classes defined in bdecat, by name."""
    out = {}
    for path in SOURCES:
        module = importlib.import_module(f"bdecat.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, tuple) \
                    and value.__module__ == module.__name__:
                out[name] = value
    return out


# The functions that build one record per item of their input, by module,
# with the records each builds: they make them with tuple.__new__, as the
# NamedTuple's generated __new__ costs a Python call per record.
PER_ITEM_BUILDERS = {
    ("serialize", "_generators_from_json"): {"ModuleGenerator"},
    ("serialize", "cfk_from_json"): {"CFKGenerator", "Arrow"},
    ("cfk2cfd", "build_cfd"): {"ModuleGenerator"},
    ("dmodules", "box_tensor"): {"ModuleGenerator"},
    ("strands", "_basis_element"): {"StrandsGenerator"},
    ("strands", "differential_generator"): {"StrandsGenerator"},
    ("strands", "_chord_sets"): {"ReebChord"},
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _named_tuple_classes(trees) -> dict:
    """name -> ClassDef of each class in the package that lists NamedTuple,
    or another such class, among its bases."""
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    found: dict = {}
    while True:
        more = {name: node for name, node in classes.items() if name not in found
                and any(isinstance(b, ast.Name) and (b.id == "NamedTuple" or b.id in found)
                        for b in node.bases)}
        if not more:
            return found
        found |= more


def test_every_record_is_one_plain_named_tuple_class():
    """No record class defines __new__, aliases _make or extends another
    record: each record has one constructor, the one NamedTuple makes."""
    trees = _trees()
    classes = _named_tuple_classes(trees)
    assert {"ModuleGenerator", "StrandsGenerator", "GradingElement", "ReebChord",
            "DiagramPoint", "CFKGenerator", "Arrow"} <= set(classes)
    for name, node in sorted(classes.items()):
        assert [ast.unparse(b) for b in node.bases] == ["NamedTuple"], name
        defined = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
        defined |= {t.id for n in node.body if isinstance(n, (ast.Assign, ast.AnnAssign))
                    for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                    if isinstance(t, ast.Name)}
        assert not defined & {"__new__", "_make", "__getnewargs_ex__"}, name
    records = _records()
    for name in classes:
        assert records[name].__bases__ == (tuple,), name
    assert not hasattr(records["StrandsGenerator"], "is_idempotent")


def _tuple_new_names(function) -> set[str]:
    """The local names bound to tuple.__new__ in a function, by plain or
    unpacking assignment."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                          and ast.unparse(v) == "tuple.__new__"}
    return names


def test_the_per_item_builders_make_their_records_with_tuple_new():
    trees = _trees()
    for (module, name), records in PER_ITEM_BUILDERS.items():
        function, = [node for node in ast.walk(trees[module])
                     if isinstance(node, ast.FunctionDef) and node.name == name]
        new = _tuple_new_names(function) | {"tuple.__new__"}
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        built = {ast.unparse(c.args[0]) for c in calls
                 if ast.unparse(c.func) in new and c.args}
        assert built == records, (module, name, built)
        direct = {ast.unparse(c.func) for c in calls} & records
        assert not direct, (module, name, direct)


@pytest.mark.parametrize("matching", [(1, 2, 1, 2)] + GENUS2_CLASSES)
def test_chord_sets_are_every_set_with_m_injective_on_starts_and_ends(matching):
    pmc = PointedMatchedCircle(matching)
    n = pmc.num_points
    chords = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    for size in range(2 * pmc.genus + 1):
        want = [rho for rho in itertools.combinations(chords, size)
                if len({pmc.pair_of(a) for a, _ in rho}) == size
                == len({pmc.pair_of(b) for _, b in rho})]
        got = _chord_sets(pmc, size)
        assert sorted(got) == want
        assert all(type(c) is ReebChord for rho in got for c in rho)
    assert _chord_sets(pmc, 2 * pmc.genus + 1) == ()


def test_the_summands_of_a_circle_list_each_chord_set_size_once():
    pmc = PointedMatchedCircle((1, 2, 3, 1, 2, 4, 3, 4))
    before = _chord_sets.cache_info()
    for i in range(-2, 3):
        assert basis_of_AZ.__wrapped__(pmc, i)
    after = _chord_sets.cache_info()
    # sizes 0..4 are each listed at most once, and read from the cache after
    assert after.misses - before.misses <= 5
    assert after.hits - before.hits >= 10


@pytest.mark.parametrize("matching", [(1, 2, 1, 2), (1, 2, 1, 2, 3, 4, 3, 4)] + GENUS2_CLASSES
                         + [(1, 2, 1, 2, 3, 4, 3, 4, 5, 6, 5, 6)])
def test_the_unchecked_random_gradings_pass_the_checked_constructor(matching):
    pmc, rng = PointedMatchedCircle(matching), random.Random(7)
    for _ in range(300):
        x = _random_gz_element(pmc, rng)
        assert type(x) is GradingElement and checked_grading(*x) == x
        assert len(x.alpha) == pmc.num_points - 1 and x.j4 % 2 == 0

