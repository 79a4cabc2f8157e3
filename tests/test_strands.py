import itertools
import random
import re

import pytest

from bdecat import strands
from bdecat.pmc import PointedMatchedCircle, ReebChord, split_pmc
from bdecat.strands import (AZBasis, basis_of_AZ, differential, left_right_pairs,
                            multiply)
from tests.helpers import (EndpointClash, a0, a_of, checked_strands_generator,
                           chord_signature, element, generators_of_ank, idempotent,
                           pair_idempotent, zero)
from tests.test_grading import GENUS2_CLASSES


def gen(n, strands):
    strands = sorted(strands)
    S = tuple(s for s, _ in strands)
    phi = tuple(t for _, t in strands)
    return checked_strands_generator(n, S, tuple(sorted(phi)), phi)


def test_idempotents_multiply():
    i13 = element([idempotent(4, {1, 3})])
    i1 = element([idempotent(4, {1})])
    i2 = element([idempotent(4, {2})])
    assert multiply(i13, i13) == i13
    assert not multiply(i1, i2)


def test_inversions_must_add():
    a = gen(4, [(1, 3), (2, 2)])
    b = gen(4, [(2, 4), (3, 3)])
    assert a.inversions() == 1 and b.inversions() == 1
    assert not multiply(element([a]), element([b]))


def test_differential_smooths_the_crossing():
    a = gen(3, [(1, 3), (2, 2)])
    expected = element([gen(3, [(1, 2), (2, 3)])])
    assert differential(element([a])) == expected


def test_differential_squares_to_zero_on_a42():
    gens = list(generators_of_ank(4, 2))
    assert len(gens) > 0
    for g in gens:
        assert not differential(differential(element([g])))


def test_differential_of_idempotents_vanishes():
    for S in itertools.combinations(range(1, 5), 2):
        assert not differential(element([idempotent(4, S)]))


def test_a0_empty_chord_set_is_idempotent_sum():
    for k in (1, 2):
        el = a0(4, [], k)
        expected = {idempotent(4, S) for S in itertools.combinations(range(1, 5), k)}
        assert el.terms == frozenset(expected)


def test_a0_single_chord_count_one():
    el = a0(4, [ReebChord(1, 3)], 1)
    assert el.terms == frozenset({gen(4, [(1, 3)])})


def test_a0_single_chord_count_two_completions():
    # horizontal strand at 2 or at 4; endpoint positions 1, 3 are blocked
    el = a0(4, [ReebChord(1, 3)], 2)
    assert el.terms == frozenset({gen(4, [(1, 3), (2, 2)]),
                                  gen(4, [(1, 3), (4, 4)])})


def test_a0_rejects_shared_endpoints():
    with pytest.raises(EndpointClash):
        a0(4, [ReebChord(1, 3), ReebChord(1, 2)], 2)
    with pytest.raises(EndpointClash):
        a0(4, [ReebChord(1, 3), ReebChord(2, 3)], 2)


def test_a_of_rho1_sits_between_the_idempotents(torus):
    rho1 = a_of(torus, [ReebChord(1, 2)], 0)
    assert rho1
    i0, i1 = pair_idempotent(torus, {1}), pair_idempotent(torus, {2})
    assert multiply(multiply(i0, rho1), i1) == rho1


def test_a_of_empty_chords_is_the_summand_identity(torus, split2):
    for pmc in (torus, split2):
        k = pmc.genus
        for i in range(-k, k + 1):
            expected = zero(pmc.num_points)
            for s in itertools.combinations(range(1, 2 * k + 1), k + i):
                expected = expected + pair_idempotent(pmc, s)
            assert a_of(pmc, [], i) == expected


def test_torus_reeb_elements(torus):
    chords = [ReebChord(1, 2), ReebChord(2, 3), ReebChord(3, 4),
              ReebChord(1, 3), ReebChord(2, 4), ReebChord(1, 4)]
    elements = [a_of(torus, [c], 0) for c in chords]
    assert all(elements)
    assert len({el.terms for el in elements}) == 6


def test_torus_basis_size(torus):
    assert len(basis_of_AZ(torus, 0)) == 8


def test_top_summand_contains_top_idempotent(torus, split2):
    for pmc in (torus, split2):
        k = pmc.genus
        basis = basis_of_AZ(pmc, k)
        top = pair_idempotent(pmc, range(1, 2 * k + 1))
        assert any(el == top for el in basis)


def test_basis_closed_under_operations(torus, split2):
    for pmc in (torus, split2):
        basis = AZBasis(pmc, 0)
        for i, el in enumerate(basis.elements):
            # decompose raises if the element is not in the span
            assert basis.differentials[i] == basis.decompose(differential(el))
        for i, a in enumerate(basis.elements):
            for j, b in enumerate(basis.elements):
                p = basis.decompose(multiply(a, b))
                assert basis.products.get((i, j), ()) == p
                assert ((i, j) in basis.products) == bool(p)


def test_basis_idempotents_are_left_right_pairs(torus, split2):
    for pmc in (torus, split2):
        basis = AZBasis(pmc, 0)
        assert len(basis.idempotents) == len(basis)
        for i, el in enumerate(basis.elements):
            assert basis.idempotents[i] == left_right_pairs(pmc, el)
            assert i in basis.by_left[basis.idempotents[i][0]]
        assert all(list(js) == sorted(js) for js in basis.by_left.values())


def test_bucketed_products_equal_the_all_pairs_build_in_order(torus, split2):
    for pmc in (torus, split2):
        basis = AZBasis(pmc, 0)
        reference = [((i, j), p)
                     for (i, a), (j, b) in itertools.product(enumerate(basis.elements), repeat=2)
                     if (p := basis.decompose(multiply(a, b)))]
        assert list(basis.products.items()) == reference


def test_split2_table_is_built_from_labels_without_multiply(split2, monkeypatch):
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(strands, "multiply", counting)
    basis = AZBasis(split2, 0)
    assert len(basis.products) == 1917
    assert calls == []


def test_label_products_match_multiply_on_sampled_split3_pairs():
    basis = AZBasis(split_pmc(3), 0)
    els, idem, by_left = basis.elements, basis.idempotents, basis.by_left
    rng = random.Random(3)
    counts = {"zero": 0, "nonzero": 0, "not composable": 0}
    for trial in range(3600):
        i = rng.randrange(len(els))
        if trial % 12:
            j = rng.choice(by_left[idem[i][1]])
        else:
            j = rng.randrange(len(els))
        p = basis.product(i, j)
        assert p == basis.decompose(multiply(els[i], els[j])), (i, j)
        kind = ("not composable" if idem[i][1] != idem[j][0]
                else "nonzero" if p else "zero")
        counts[kind] += 1
    assert min(counts.values()) >= 150, counts
    assert counts["zero"] + counts["nonzero"] >= 3000, counts


def test_a_product_label_missing_from_the_basis_raises(torus, monkeypatch):
    basis = AZBasis(torus, 0)
    (i, j), _ = next(iter(basis.products.items()))
    monkeypatch.setattr(basis, "by_label", {})
    with pytest.raises(ValueError, match="is not in A"):
        basis.product(i, j)


@pytest.mark.parametrize("term", [
    gen(4, [(1, 1), (2, 2)]),  # two strands: a term of A(Z, 1)
    gen(4, [(1, 2), (3, 3)]),  # rho1 with both points of pair 1 occupied
    gen(8, [(1, 2)]),  # rho1's strand on another ambient circle
    gen(8, [(5, 7)]),  # a strand off the torus circle's points
])
def test_decompose_names_a_term_outside_every_element(torus, term):
    with pytest.raises(ValueError, match=f"^{re.escape(f'term {term} is not in A(Z, 0)')}$"):
        AZBasis(torus, 0).decompose(element([term]))


def test_unique_idempotent_pair_per_basis_element(torus, split2):
    for pmc in (torus, split2):
        for i in range(-pmc.genus, pmc.genus + 1):
            for el in basis_of_AZ(pmc, i):
                s, t = left_right_pairs(pmc, el)
                left = pair_idempotent(pmc, s)
                right = pair_idempotent(pmc, t)
                assert multiply(multiply(left, el), right) == el


def test_signatures_are_disjoint_across_basis(split2):
    seen = {}
    for el in basis_of_AZ(split2, 0):
        for g in el.terms:
            sig = chord_signature(split2, g)
            assert seen.setdefault(sig, el) == el, \
                "one signature appears in two distinct basis elements"


def test_ambient_mismatch():
    from bdecat.strands import AmbientMismatch
    with pytest.raises(AmbientMismatch):
        multiply(element([idempotent(4, {1})]), element([idempotent(8, {1})]))


@pytest.mark.parametrize("matching", GENUS2_CLASSES)
def test_label_products_match_multiply_on_every_genus2_circle(matching):
    basis = AZBasis(PointedMatchedCircle(matching), 0)
    els, idem, by_left = basis.elements, basis.idempotents, basis.by_left
    reference = {(i, j): p for i in range(len(els)) for j in by_left.get(idem[i][1], ())
                 if (p := basis.decompose(multiply(els[i], els[j])))}
    assert basis.products == reference
