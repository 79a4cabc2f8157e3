import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdecat import grading
from bdecat.grading import (GradingElement, NotInGZ, NotMiddleSummand, _link2,
                            default_refinement, f_s,
                            ginv, gmul, gr_prime, gr_prime_generator,
                            identity_grading, lam,
                            m_of, m_table, ratio_str, refine)
from bdecat.pmc import ReebChord
from bdecat.selfcheck import _random_gz_element
from bdecat.strands import (basis_of_AZ, left_right_pairs, multiply,
                            differential)
from tests import grading_oracle as oracle
from tests.helpers import a_of, chord_vector, element, idempotent, reverse_refinement


def test_ratio_str_writes_what_fraction_writes():
    for d in (2, 4):
        for n in range(-50, 51):
            assert ratio_str(n, d) == str(Fraction(n, d))


def test_selfcheck_import_leaves_grothendieck_out():
    """The selftest reads gradings only; ratio_str lives in grading, so a
    fresh import of the selftest does not load the K0 module."""
    src = os.path.dirname(os.path.dirname(grading.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bdecat.selfcheck; "
         "print('bdecat.grothendieck' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def test_multiplicity_examples():
    assert oracle.multiplicity((1, 0, 0), 1) * 2 == 1
    assert oracle.multiplicity((1, 1, 0), 2) == 1
    assert all(oracle.multiplicity((0, 0, 0), p) == 0 for p in range(1, 5))


def test_linking_of_interval_with_itself_vanishes():
    for p in range(1, 4):
        v = chord_vector(4, ReebChord(p, p + 1))
        assert _link2(v, v) == 0


def test_linking_zero_class():
    z = (0, 0, 0)
    assert _link2(z, (1, 2, 1)) == 0
    assert _link2((1, 2, 1), z) == 0


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(-3, 3), min_size=7, max_size=7),
       st.lists(st.integers(-3, 3), min_size=7, max_size=7))
def test_linking_antisymmetric_mod_integers(a, b):
    total2 = _link2(tuple(a), tuple(b)) + _link2(tuple(b), tuple(a))
    assert total2 % 2 == 0


def test_group_law_and_lambda(torus):
    n = torus.num_points
    e1 = chord_vector(n, ReebChord(1, 2))
    e2 = chord_vector(n, ReebChord(2, 3))
    x = GradingElement(-2, e1)
    y = GradingElement(-2, e2)
    prod = gmul(x, y)
    assert prod.alpha == tuple(a + b for a, b in zip(e1, e2))
    assert prod.j4 == -4 + 2 * _link2(e1, e2)
    lam4 = lam(n)
    assert gmul(lam4, x) == gmul(x, lam4) == GradingElement(x.j4 + 4, x.alpha)
    assert gmul(x, ginv(x)) == identity_grading(n)
    assert ginv(lam4) == GradingElement(-4, (0, 0, 0))


def test_grading_element_constraint_rejected():
    with pytest.raises(ValueError):
        GradingElement(0, (1, 0, 0))  # needs half-integer j


def test_gr_prime_idempotent_and_rho1(torus):
    assert gr_prime(element([idempotent(4, {1, 3})])) == identity_grading(4)
    rho1 = a_of(torus, [ReebChord(1, 2)], 0)
    assert gr_prime(rho1) == GradingElement(-2, (1, 0, 0))


def test_gr_prime_differential_drops_lambda(torus, split2):
    for pmc in (torus, split2):
        lam_inv = ginv(lam(pmc.num_points))
        for el in basis_of_AZ(pmc, 0):
            d = differential(el)
            if d:
                assert gr_prime(d) == gmul(lam_inv, gr_prime(el))


def _mstar_boundary(pmc, alpha):
    """M* of d alpha, where interval p contributes a_{p+1} - a_p at point p."""
    padded = (0,) + tuple(alpha) + (0,)
    out = {}
    for q in range(1, len(padded)):
        pair = pmc.pair_of(q)
        out[pair] = out.get(pair, 0) + padded[q - 1] - padded[q]
    return {p: c for p, c in out.items() if c}


def test_default_refinement_base_is_identity(torus, split2):
    for pmc in (torus, split2):
        ref = default_refinement(pmc)
        k = pmc.genus
        assert ref.psi_of(range(1, k + 1)) == identity_grading(pmc.num_points)


def test_default_refinement_torus_psi(torus):
    ref = default_refinement(torus)
    assert ref.psi_of({2}) == GradingElement(-2, (1, 0, 0))


def test_refinement_defining_property(torus, split2):
    """M* d[psi(t)] = t - s0 for every k-element pair set t."""
    for pmc in (torus, split2):
        ref = default_refinement(pmc)
        s0 = ref.base
        for t, psi in ref.psi.items():
            expected = {}
            for i in t - s0:
                expected[i] = 1
            for i in s0 - t:
                expected[i] = -1
            assert _mstar_boundary(pmc, psi.alpha) == expected


def test_refine_idempotent_grading_is_identity(torus):
    ref = default_refinement(torus)
    for s in ({1}, {2}):
        assert refine(identity_grading(4), s, s, ref) == identity_grading(4)


def test_refined_chords_lie_in_gz(torus):
    ref = default_refinement(torus)
    for chord in (ReebChord(1, 2), ReebChord(2, 3), ReebChord(3, 4)):
        el = a_of(torus, [chord], 0)
        s, t = left_right_pairs(torus, el)
        refined = refine(gr_prime(el), s, t, ref)
        assert _mstar_boundary(torus, refined.alpha) == {}


def test_refine_is_multiplicative_on_products(torus, split2):
    for pmc in (torus, split2):
        ref = default_refinement(pmc)
        basis = basis_of_AZ(pmc, 0)

        def refined(el):
            s, t = left_right_pairs(pmc, el)
            return refine(gr_prime(el), s, t, ref)

        for a in basis:
            for b in basis:
                ab = multiply(a, b)
                if ab:
                    assert refined(ab) == gmul(refined(a), refined(b))


def test_fs_normalizations(torus, split2):
    for pmc in (torus, split2):
        assert f_s(lam(pmc.num_points), pmc) == 1
        assert f_s(identity_grading(pmc.num_points), pmc) == 0


def test_fs_on_pair_chords_is_one(torus, split2):
    """f(g_i) = 1 for the refined grading of every matched-pair chord."""
    for pmc in (torus, split2):
        ref = default_refinement(pmc)
        for i in range(1, 2 * pmc.genus + 1):
            lo, hi = pmc.points_of_pair(i)
            el = a_of(pmc, [ReebChord(lo, hi)], 0)
            for term in el.terms:
                single = element([term])
                s, t = left_right_pairs(pmc, single)
                g = refine(gr_prime_generator(term), s, t, ref)
                assert f_s(g, pmc) == 1
                # Maslov component mod 2: -1/2 for i in s0, +1/2 otherwise
                offset4 = -2 if i in ref.base else 2
                assert (g.j4 - offset4) % 8 == 0


def test_fs_is_a_homomorphism(torus, split2):
    rng = random.Random(11)
    for pmc in (torus, split2):
        for _ in range(300):
            x = _random_gz_element(pmc, rng)
            y = _random_gz_element(pmc, rng)
            assert f_s(gmul(x, y), pmc) == (f_s(x, pmc) + f_s(y, pmc)) % 2


def test_fs_rejects_classes_outside_gz(torus):
    with pytest.raises(NotInGZ):
        f_s(GradingElement(-2, (1, 0, 0)), torus)


def test_m_values_of_torus_elements(talg):
    m = {name: m_table(talg.pmc)[i] for name, i in talg.index.items()}
    assert m == {"iota0": 0, "iota1": 0, "rho1": 0, "rho2": 1,
                 "rho3": 0, "rho12": 1, "rho23": 1, "rho123": 1}


def test_m_rejects_non_middle_summand(torus):
    top = element([idempotent(4, {1, 2})])
    with pytest.raises(NotMiddleSummand):
        m_of(top, torus)


# every valid 8-point matching up to pair relabeling; the first is split
GENUS2_CLASSES = [
    (1, 2, 1, 2, 3, 4, 3, 4), (1, 2, 1, 3, 2, 4, 3, 4), (1, 2, 1, 3, 4, 2, 3, 4),
    (1, 2, 1, 3, 4, 3, 2, 4), (1, 2, 1, 3, 4, 3, 4, 2), (1, 2, 3, 1, 2, 4, 3, 4),
    (1, 2, 3, 1, 3, 4, 2, 4), (1, 2, 3, 1, 4, 2, 4, 3), (1, 2, 3, 1, 4, 3, 4, 2),
    (1, 2, 3, 2, 3, 4, 1, 4), (1, 2, 3, 2, 4, 1, 3, 4), (1, 2, 3, 2, 4, 1, 4, 3),
    (1, 2, 3, 2, 4, 3, 1, 4), (1, 2, 3, 4, 1, 2, 3, 4), (1, 2, 3, 4, 1, 3, 4, 2),
    (1, 2, 3, 4, 1, 4, 2, 3), (1, 2, 3, 4, 2, 3, 1, 4), (1, 2, 3, 4, 2, 4, 1, 3),
    (1, 2, 3, 4, 3, 1, 2, 4), (1, 2, 3, 4, 3, 1, 4, 2), (1, 2, 3, 4, 3, 4, 1, 2),
]


@pytest.mark.parametrize("matching", GENUS2_CLASSES)
def test_pair_chord_linkings_are_the_core_intersection_form(matching):
    """2 L(rho_i, rho_j), summed over the chord vectors, is twice
    `core_intersection`, the J that `_pair_chord_data` and
    `diagram.core_coordinates` both read."""
    from bdecat.pmc import PointedMatchedCircle

    pmc = PointedMatchedCircle(matching)
    vectors = [chord_vector(8, ReebChord(*pmc.points_of_pair(i)))
               for i in range(1, 5)]
    J = pmc.core_intersection
    assert [[_link2(u, v) for v in vectors] for u in vectors] == [
        [2 * x for x in row] for row in J]
    assert grading._pair_chord_data(pmc)[1] == J


@pytest.mark.parametrize("matching", GENUS2_CLASSES)
def test_identities_on_every_genus2_circle(matching):
    """d^2, closure, f(g_i) = 1, and sampled m multiplicativity hold on all
    21 genus-2 pointed matched circles, not just the split one."""
    from bdecat.pmc import PointedMatchedCircle
    from bdecat.strands import AZBasis

    pmc = PointedMatchedCircle(matching)
    basis = AZBasis(pmc, 0)
    ref = default_refinement(pmc)
    for el in basis.elements:
        d = differential(el)
        if d:
            assert not differential(d)
            basis.decompose(d)
    for i in range(1, 5):
        lo, hi = pmc.points_of_pair(i)
        for term in a_of(pmc, [ReebChord(lo, hi)], 0).terms:
            assert m_of(element([term]), pmc, ref) == 1
    rng = random.Random(sum(matching))
    mvals = {}
    for _ in range(60):
        a, b = rng.choice(basis.elements), rng.choice(basis.elements)
        ab = multiply(a, b)
        if ab:
            basis.decompose(ab)
            ma = mvals.setdefault(a, m_of(a, pmc, ref))
            mb = mvals.setdefault(b, m_of(b, pmc, ref))
            assert m_of(ab, pmc, ref) == (ma + mb) % 2


def test_reverse_refinement_property(torus, split2):
    """The reversed data satisfies the defining property on the reverse circle.

    Pair names on the reversed circle are the raw values kept by reverse().
    """
    from bdecat.pmc import reverse as reverse_pmc
    for pmc in (torus, split2):
        ref = default_refinement(pmc)
        rev_ref = reverse_refinement(pmc, ref)
        rev = reverse_pmc(pmc)
        assert rev_ref.base == frozenset(range(1, 2 * pmc.genus + 1)) - ref.base
        for t, psi in rev_ref.psi.items():
            expected = {}
            for i in t - rev_ref.base:
                expected[i] = 1
            for i in rev_ref.base - t:
                expected[i] = -1
            assert _mstar_boundary(rev, psi.alpha) == expected
