"""Helpers that only the tests use: an A(n, k) generator enumeration, the
orientation reversal of gradings and refinement data, arc-slide row
operations on intersection matrices, and iterated type D deltas."""

from __future__ import annotations

import itertools

from bdecat.dmodules import TypeDStructure, is_bounded
from bdecat.grading import GradingElement, RefinementData, ginv
from bdecat.pmc import PointedMatchedCircle
from bdecat.strands import StrandsGenerator


def generators_of_ank(n: int, k: int):
    """Every generator of A(n, k): sources, targets, and upward bijections."""
    for S in itertools.combinations(range(1, n + 1), k):
        for images in itertools.permutations(range(1, n + 1), k):
            if all(t >= s for s, t in zip(S, images)):
                yield StrandsGenerator(n, S, tuple(sorted(images)), images)


def reverse_grading(x: GradingElement) -> GradingElement:
    """R(j; alpha): the map induced by the orientation-reversing identity.

    Points relabel by p -> 4k+1-p, and every interval reverses orientation,
    so the multiplicity vector is reversed and negated; j is unchanged.
    """
    return GradingElement.from_j4(x.j4, tuple(-a for a in reversed(x.alpha)))


def reverse_refinement(pmc: PointedMatchedCircle, ref: RefinementData) -> RefinementData:
    """psi_{-Z}(t) = R(psi_Z([2k] \\ t))^{-1}, base [2k] \\ s0."""
    k = pmc.genus
    all_pairs = frozenset(range(1, 2 * k + 1))
    psi = {all_pairs - t: ginv(reverse_grading(g)) for t, g in ref.psi.items()}
    return RefinementData(all_pairs - ref.base, psi)


class BadIndex(IndexError):
    pass


def arc_slide_rows(matrix: list[list[int]], i: int, j: int,
                   num_circles: int, subtract: bool = False) -> list[list[int]]:
    """Row operation of sliding arc i over arc j: add row g-k+j to row g-k+i."""
    rows = [row[:] for row in matrix]
    ri, rj = num_circles + i - 1, num_circles + j - 1
    if i == j or not (0 <= ri < len(rows) and 0 <= rj < len(rows)):
        raise BadIndex(f"bad arc indices {i}, {j}")
    sign = -1 if subtract else 1
    rows[ri] = [a + sign * b for a, b in zip(rows[ri], rows[rj])]
    return rows


class Unbounded(ValueError):
    pass


def delta_k(N: TypeDStructure, x: str, k: int) -> set[tuple]:
    """The k-fold iterate of delta as an F2 set of (basis indices, name) keys.

    A key spells its algebra factors as A(Z, 0) basis indices, one per
    factor, so cancellation is a symmetric difference.  delta_0 is the
    identity.
    """
    if k > len(N.generators) and not is_bounded(N):
        raise Unbounded(
            f"iterating delta {k} times on an unbounded structure")
    current: set[tuple] = {((), x)}
    dmap = N.delta_map()
    for _ in range(k):
        nxt: set[tuple] = set()
        for prefix, y in current:
            for ids, z in dmap[y]:
                for i in ids:
                    nxt ^= {(prefix + (i,), z)}
        current = nxt
    return current
