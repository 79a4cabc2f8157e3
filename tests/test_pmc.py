import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bdecat.diagram import core_coordinates
from bdecat.linalg import det_int
from bdecat.pmc import (DisconnectedSurgery, MalformedMatching,
                        PointedMatchedCircle, reverse, split_pmc, torus_pmc,
                        validate)
from tests.helpers import plus_point
from tests.test_grading import GENUS2_CLASSES


def test_torus_is_valid():
    pmc = torus_pmc()
    assert pmc.matching == (1, 2, 1, 2)
    assert pmc.genus == 1


def test_split_genus2_is_valid():
    pmc = split_pmc(2)
    assert pmc.matching == (1, 2, 1, 2, 3, 4, 3, 4)
    assert pmc.genus == 2


def test_split_genus3():
    assert split_pmc(3).genus == 3


def test_nested_matching_disconnects():
    with pytest.raises(DisconnectedSurgery):
        PointedMatchedCircle((1, 1, 2, 2))


def test_malformed_matchings():
    with pytest.raises(MalformedMatching):
        PointedMatchedCircle((1, 2, 1))
    with pytest.raises(MalformedMatching):
        PointedMatchedCircle((1, 1, 1, 2))
    with pytest.raises(MalformedMatching):
        PointedMatchedCircle((1, 3, 1, 3))


def test_pair_endpoints():
    pmc = torus_pmc()
    assert pmc.points_of_pair(1) == (1, 3)
    assert pmc.points_of_pair(2) == (2, 4)
    assert pmc.minus_point(2) == 2 and plus_point(pmc, 2) == 4
    assert pmc.partner(1) == 3 and pmc.partner(4) == 2


def test_reverse_torus():
    assert reverse(torus_pmc()).matching == (2, 1, 2, 1)


def test_reverse_split2_by_relabeling_rule():
    pmc = split_pmc(2)
    n = pmc.num_points
    expected = tuple(pmc.matching[n - p] for p in range(1, n + 1))
    assert reverse(pmc).matching == expected
    validate(reverse(pmc))


def all_valid_matchings(n):
    """Brute-force reference: every valid matching on n points."""
    out = []
    for values in itertools.product(range(1, n // 2 + 1), repeat=n):
        if all(values.count(v) == 2 for v in range(1, n // 2 + 1)):
            try:
                out.append(PointedMatchedCircle(values))
            except DisconnectedSurgery:
                pass
    return out


def test_all_valid_4_point_circles():
    pmcs = all_valid_matchings(4)
    matchings = {p.matching for p in pmcs}
    # only the torus pattern and its pair-relabeling survive surgery
    assert matchings == {(1, 2, 1, 2), (2, 1, 2, 1)}


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False))
def test_reverse_is_involution_and_preserves_validity(rnd):
    pmcs = all_valid_matchings(4) + [split_pmc(2), torus_pmc()]
    pmc = rnd.choice(pmcs)
    rev = reverse(pmc)
    validate(rev)
    assert reverse(rev) == pmc


def test_pair_count_matches_genus():
    for pmc in (torus_pmc(), split_pmc(2), split_pmc(3)):
        assert len(set(pmc.matching)) == 2 * pmc.genus


def test_max_points_guard():
    with pytest.raises(MalformedMatching):
        split_pmc(4)
    split_pmc(3)


@pytest.mark.parametrize("matching", GENUS2_CLASSES)
def test_core_intersection_is_unimodular_and_antisymmetric(matching):
    """J on every genus-2 circle, and `core_coordinates` inverts J^T."""
    pmc = PointedMatchedCircle(matching)
    J = pmc.core_intersection
    n = len(J)
    assert all(J[i][j] == -J[j][i] for i in range(n) for j in range(n))
    assert det_int([list(row) for row in J]) in (1, -1)
    inverse = [[0] * n for _ in range(n)]
    for i, entries in enumerate(core_coordinates(pmc)):
        for j, v in entries:
            inverse[i][j] = v
    assert [[sum(inverse[i][m] * J[j][m] for m in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_core_intersection_on_split_circles_is_the_matched_swap(genus):
    """a_{2i-1} . a_{2i} = +1, so c_{2i-1} = n_{2i} and c_{2i} = -n_{2i-1}."""
    pmc = split_pmc(genus)
    assert pmc.core_intersection == tuple(
        tuple(1 if i % 2 and j == i + 1 else -1 if not i % 2 and j == i - 1 else 0
              for j in range(1, 2 * genus + 1))
        for i in range(1, 2 * genus + 1))
    assert core_coordinates(pmc) == tuple(
        ((i + 1, 1),) if i % 2 == 0 else ((i - 1, -1),) for i in range(2 * genus))
