"""Records built without checks equal the checked ones, and print as they
always did.

The records are plain NamedTuples that check nothing as they are made.  The
basis of A(Z) and the strand differential build their generators with
`tuple.__new__`, gr', `gmul` and `ginv` build gradings with the plain
constructor, and `gmul` takes the sum and the linking in one pass.  These
tests hold them to the checking constructors the records had (kept in
`tests.helpers`), and to the filter and the two-pass product they replaced,
on every summand of the torus, split2 and split3 algebras and on the
selftest's random grading pairs.  They also pin the text of each record
(error messages print it), the hashes that fix every set's order, and the
bytes of `bdecat algebra --gradings`."""

import hashlib
import random
import re

import pytest

from bdecat.grading import GradingElement, RefinementData, _link2, ginv, gmul, gr_prime_generator
from bdecat.pmc import PointedMatchedCircle, ReebChord, split_pmc, torus_pmc
from bdecat.selfcheck import HOM_PAIRS, _random_gz_element
from bdecat.strands import (AlgebraElement, StrandsGenerator, basis_of_AZ,
                            differential_generator)
from tests.helpers import checked_chord, checked_grading, checked_strands_generator
from tests.test_cli import invoke

CIRCLES = {"torus": torus_pmc(), "split2": split_pmc(2), "split3": split_pmc(3)}

# The number of generators over all summands A(Z, i), i in -k..k.
TERMS = {"torus": 23, "split2": 1137, "split3": 106343}

# SHA-256 of the stdout of `bdecat algebra --pmc <name> --gradings`.
GRADINGS_PINNED = {
    "torus": "1b51a6cd8be3964f4931935c577f4dde7624536ead12b616dc005bb299844fbd",
    "split2": "afc6c38324239c0e6eeff978ac3932fb77611fc9fdfd0732f5fec2a9d65a389a",
    "split3": "ae36f3dae891363791db0897a06eb02ee2eb71eed22905d718452daf1891488d",
}


def differential_generator_oracle(a: StrandsGenerator) -> set[StrandsGenerator]:
    """The differential as it filtered resolutions before: each swap goes
    through the checked constructor, and the ones it rejects are dropped."""
    out: set[StrandsGenerator] = set()
    inv = a.inversions()
    phi = list(a.phi)
    for i in range(len(phi)):
        for j in range(i + 1, len(phi)):
            if phi[j] < phi[i]:
                swapped = phi[:]
                swapped[i], swapped[j] = swapped[j], swapped[i]
                try:
                    res = checked_strands_generator(a.n, a.S, a.T, tuple(swapped))
                except ValueError:
                    continue
                if res.inversions() == inv - 1:
                    out ^= {res}
    return out


def gmul_oracle(x: GradingElement, y: GradingElement) -> GradingElement:
    """The group law in two passes: the sum vector, then 2L by `_link2`."""
    alpha = tuple(a + b for a, b in zip(x.alpha, y.alpha))
    return checked_grading(x.j4 + y.j4 + 2 * _link2(x.alpha, y.alpha), alpha)


def _terms(pmc: PointedMatchedCircle):
    for i in range(-pmc.genus, pmc.genus + 1):
        for el in basis_of_AZ(pmc, i):
            yield from el.terms


@pytest.mark.parametrize("name", CIRCLES)
def test_every_basis_term_equals_its_checked_record(name):
    terms = list(_terms(CIRCLES[name]))
    assert len(terms) == TERMS[name]
    for g in terms:
        checked = checked_strands_generator(*g)
        assert checked == g and type(checked) is type(g) is StrandsGenerator


@pytest.mark.parametrize("name", CIRCLES)
def test_the_differential_equals_the_checked_filter_on_every_term(name):
    nonzero = 0
    for g in _terms(CIRCLES[name]):
        got = differential_generator(g)
        assert got == differential_generator_oracle(g), g
        nonzero += bool(got)
    assert nonzero > 0


def test_one_pass_gmul_equals_the_two_pass_product_on_the_selftest_pairs():
    # the f(xy) pairs of the selftest: seeds 0-4, the torus circle first
    for seed in range(5):
        rng = random.Random(seed)
        for pmc in (CIRCLES["torus"], CIRCLES["split2"]):
            for _ in range(HOM_PAIRS):
                x, y = _random_gz_element(pmc, rng), _random_gz_element(pmc, rng)
                assert gmul(x, y) == gmul_oracle(x, y), (x, y)
    with pytest.raises(ValueError, match="ambient mismatch"):
        gmul(GradingElement(0, (0, 0, 0)), GradingElement(0, (0,) * 7))


def test_records_print_and_hash_as_the_dataclasses_did():
    g = StrandsGenerator(4, (1,), (2,), (2,))
    x = GradingElement(2, (1, 0, 0))
    el, pmc = AlgebraElement(4, [g]), torus_pmc()
    assert repr(ReebChord(1, 2)) == "ReebChord(start=1, end=2)"
    assert repr(g) == "StrandsGenerator(n=4, S=(1,), T=(2,), phi=(2,))"
    assert repr(x) == "GradingElement(j4=2, alpha=(1, 0, 0))"
    assert repr(el) == ("AlgebraElement(n=4, terms=frozenset({"
                        "StrandsGenerator(n=4, S=(1,), T=(2,), phi=(2,))}))")
    assert repr(pmc) == "PointedMatchedCircle(matching=(1, 2, 1, 2))"
    assert repr(RefinementData(frozenset({1}), {})) == \
        "RefinementData(base=frozenset({1}), psi={})"
    with pytest.raises(ValueError, match=re.escape(
            "chord must run with the orientation: ReebChord(start=2, end=1)")):
        checked_chord(2, 1)
    assert checked_chord(1, 2) == ReebChord(1, 2)
    # a frozen dataclass hashes the tuple of its fields, which fixes the
    # iteration order of every set of records
    assert hash(g) == hash((4, (1,), (2,), (2,)))
    assert hash(x) == hash((2, (1, 0, 0)))
    assert hash(el) == hash((4, frozenset({g})))
    assert hash(pmc) == hash(((1, 2, 1, 2),))
    assert pmc == PointedMatchedCircle([1, 2, 1, 2]) and pmc != split_pmc(2)
    assert el == AlgebraElement(4, {g}) and el != AlgebraElement(5, ())
    for record, field in ((pmc, "matching"), (el, "terms")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("name", CIRCLES)
def test_gr_prime_meets_the_quarter_integer_constraint_on_every_term(name):
    """gr' builds its gradings unchecked; each meets 4j = #odd jumps mod 4."""
    terms = list(_terms(CIRCLES[name]))
    assert len(terms) == TERMS[name]
    for g in terms:
        x = gr_prime_generator(g)
        assert checked_grading(*x) == x, g


def test_gmul_and_ginv_keep_the_constraint_on_the_selftest_pairs():
    """gmul and ginv no longer check their results; on the f(xy) pairs of
    the selftest, seeds 0-4, every product and inverse meets the
    constraint, and so do the pairs themselves."""
    for seed in range(5):
        rng = random.Random(seed)
        for pmc in (CIRCLES["torus"], CIRCLES["split2"]):
            for _ in range(HOM_PAIRS):
                x, y = _random_gz_element(pmc, rng), _random_gz_element(pmc, rng)
                for z in (x, y, gmul(x, y), ginv(x), ginv(gmul(x, y))):
                    assert checked_grading(*z) == z, (x, y)


@pytest.mark.parametrize("name", CIRCLES)
def test_algebra_gradings_are_byte_identical(capsys, name):
    code, out, err = invoke(capsys, "algebra", "--pmc", name, "--gradings")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GRADINGS_PINNED[name]
