"""The integer grading core against the Fraction reference in grading_oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from bdecat import grading
from bdecat.grading import (GradingElement, NotHomogeneous, NotInGZ,
                            NotIntegral, NotMiddleSummand, f_s, ginv, gmul,
                            gr_prime, m_of)
from bdecat.pmc import PointedMatchedCircle, split_pmc
from bdecat.selfcheck import _random_gz_element
from bdecat.strands import basis_of_AZ, left_right_pairs
from tests import grading_oracle as oracle
from tests.helpers import checked_grading, element, idempotent, odd_jumps


def _as_pair(x: GradingElement):
    return (Fraction(x.j4, 4), x.alpha)


@pytest.fixture(scope="module")
def split3():
    return split_pmc(3)


def test_gr_prime_and_m_match_oracle_on_every_basis_element(torus, split2):
    # the split circles, and relabelings whose pairs are not numbered by
    # their first endpoints
    relabeled = [PointedMatchedCircle(m) for m in
                 ((2, 1, 2, 1), (2, 1, 2, 1, 3, 4, 3, 4), (4, 3, 1, 4, 3, 2, 1, 2))]
    for pmc in (torus, split2, *relabeled):
        for el in basis_of_AZ(pmc, 0):
            assert _as_pair(gr_prime(el)) == oracle.gr_prime(el)
            assert m_of(el, pmc) == oracle.m_of(el, pmc)


def test_h_coordinates_match_oracle_in_and_out_of_span(torus, split2, split3):
    for pmc in (torus, split2, split3):
        rng = random.Random(pmc.num_points)
        vectors = oracle.pair_chord_vectors(pmc)
        n1 = pmc.num_points - 1
        inside = outside = 0
        for trial in range(400):
            if trial % 2:
                h = [rng.randint(-3, 3) for _ in vectors]
                alpha = tuple(sum(c * v[p] for c, v in zip(h, vectors))
                              for p in range(n1))
            else:
                alpha = tuple(rng.randint(-2, 2) for _ in range(n1))
            # f_s reads h off the jumps of alpha; it must raise NotInGZ
            # exactly where the Fraction elimination finds no h
            x = checked_grading(odd_jumps(alpha), alpha)
            try:
                oracle.h_coordinates(pmc, alpha)
            except NotInGZ:
                outside += 1
                with pytest.raises(NotInGZ):
                    f_s(x, pmc)
            else:
                inside += 1
                assert f_s(x, pmc) == oracle.f_s(_as_pair(x), pmc)
        assert inside >= 200 and outside >= 150


def test_group_law_and_f_match_oracle_on_gz_pairs(torus, split2, split3):
    for pmc in (torus, split2, split3):
        rng = random.Random(7 * pmc.num_points)
        for _ in range(300):
            x = _random_gz_element(pmc, rng)
            y = _random_gz_element(pmc, rng)
            assert _as_pair(gmul(x, y)) == oracle.gmul(_as_pair(x), _as_pair(y))
            assert _as_pair(ginv(x)) == oracle.ginv(_as_pair(x))
            assert f_s(x, pmc) == oracle.f_s(_as_pair(x), pmc)


def test_group_law_matches_oracle_off_gz():
    rng = random.Random(3)
    for _ in range(300):
        alphas = [tuple(rng.randint(-3, 3) for _ in range(7)) for _ in range(2)]
        x, y = (checked_grading(odd_jumps(a) + 4 * rng.randint(-2, 2), a)
                for a in alphas)
        assert _as_pair(gmul(x, y)) == oracle.gmul(_as_pair(x), _as_pair(y))
        assert _as_pair(ginv(x)) == oracle.ginv(_as_pair(x))
        assert grading._link2(*alphas) == 2 * oracle.linking(*alphas)


def test_m_table_reads_what_a_direct_computation_gives(torus, split2):
    for pmc in (torus, split2):
        fresh = grading.RefinementData(grading.default_refinement(pmc).base,
                                       dict(grading.default_refinement(pmc).psi))
        assert grading.m_table(pmc) == tuple(m_of(el, pmc, fresh)
                                             for el in basis_of_AZ(pmc, 0))


def test_m_raises_on_every_call_for_rejected_elements(torus):
    top = element([idempotent(4, {1, 2})])
    basis = basis_of_AZ(torus, 0)
    mixed = next(a + b for a in basis for b in basis
                 if a != b and left_right_pairs(torus, a) == left_right_pairs(torus, b)
                 and gr_prime(a) != gr_prime(b))
    for _ in range(2):
        with pytest.raises(NotMiddleSummand):
            m_of(top, torus)
        with pytest.raises(NotHomogeneous):
            m_of(mixed, torus)


def test_f_s_matches_oracle_for_every_base_pair_set(torus, split2, split3):
    for pmc in (torus, split2, split3):
        k, n1 = pmc.genus, pmc.num_points - 1
        rng = random.Random(11 * pmc.num_points)
        for count, s0 in enumerate(itertools.combinations(range(1, 2 * k + 1), k)):
            # the base pair set may come as any collection of pair indices
            base = (frozenset(s0), set(s0), s0)[count % 3]
            for _ in range(25):
                x = _random_gz_element(pmc, rng)
                assert f_s(x, pmc, base) == oracle.f_s(_as_pair(x), pmc, frozenset(s0))
            outside = 0
            for _ in range(20):
                alpha = tuple(rng.randint(-2, 2) for _ in range(n1))
                x = checked_grading(odd_jumps(alpha), alpha)
                try:
                    want = oracle.f_s(_as_pair(x), pmc, frozenset(s0))
                except NotInGZ:
                    outside += 1
                    with pytest.raises(NotInGZ):
                        f_s(x, pmc, base)
                else:
                    assert f_s(x, pmc, base) == want
            assert outside >= 10
            x = _random_gz_element(pmc, rng)
            with pytest.raises(ValueError, match="does not live on"):
                f_s(GradingElement(x.j4, x.alpha + (0, 0)), pmc, base)
            with pytest.raises(ValueError, match="does not live on"):
                f_s(GradingElement(0, (0,) * (n1 - 1)), pmc, base)
            odd = GradingElement(x.j4 + 2, x.alpha)  # off the quarter-integer constraint
            with pytest.raises(NotIntegral):
                f_s(odd, pmc, base)
            with pytest.raises(ValueError):
                oracle.f_s(_as_pair(odd), pmc, frozenset(s0))
