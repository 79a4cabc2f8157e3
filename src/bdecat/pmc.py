"""Pointed matched circles and Reeb chords.

A pointed matched circle encodes a closed oriented surface of genus k as a
circle with 4k marked points, a 2-to-1 matching of the points into 2k pairs,
and a basepoint z.  Points are labeled 1..4k following the orientation of the
circle starting just after z; the basepoint itself sits between point 4k and
point 1 and is never labeled.

Matched pairs are indexed 1..2k.  We require that cutting the circle at all
4k points and regluing each matched pair by oriented 0-sphere surgery yields
a single circle; this is exactly the condition for the associated surface to
be connected of genus k.

Pair i also names the core a_i of the 1-handle attached at its two points;
the cores are a basis of H_1 of the surface.  Two cores meet once when their
pairs interleave on the circle and not at all otherwise, so the intersection
form J has J[i][j] = +1 and J[j][i] = -1 when the points of pairs i and j
come in the order i, j, i, j, and 0 when the pairs are nested or disjoint.
On a split circle J pairs a_{2i-1} with a_{2i} by +1.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple


class MalformedMatching(ValueError):
    """Matching is not a 2-to-1 map onto [2k]."""


class DisconnectedSurgery(ValueError):
    """Oriented surgery on the matched pairs yields more than one circle."""


# Size guard for the combinatorial enumerations: genus 3 at most.
MAX_POINTS = 12


class PointedMatchedCircle:
    """Matching is a tuple of length 4k; entry p-1 is the pair index of point p.
    Immutable and compared by its matching; its hash (it keys every
    per-circle cache) and each pair's two points are computed once."""

    __slots__ = ("matching", "_hash", "_points")

    def __init__(self, matching):
        matching = tuple(matching)
        points: dict = {}
        for p, pair in enumerate(matching, start=1):
            points.setdefault(pair, []).append(p)
        object.__setattr__(self, "matching", matching)
        object.__setattr__(self, "_points", {pair: tuple(ps) for pair, ps in points.items()})
        validate(self)
        object.__setattr__(self, "_hash", hash((matching,)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return PointedMatchedCircle, (self.matching,)

    def __eq__(self, other):
        return (self.matching == other.matching if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PointedMatchedCircle(matching={self.matching!r})"

    @property
    def num_points(self) -> int:
        return len(self.matching)

    @property
    def genus(self) -> int:
        return len(self.matching) // 4

    @property
    def core_intersection(self) -> tuple[tuple[int, ...], ...]:
        """J[i-1][j-1] = a_i . a_j as in the module docstring."""
        ends = [self.points_of_pair(i) for i in range(1, 2 * self.genus + 1)]
        return tuple(
            tuple(1 if p1 < q1 < p2 < q2 else -1 if q1 < p1 < q2 < p2 else 0
                  for q1, q2 in ends)
            for p1, p2 in ends)

    def pair_of(self, point: int) -> int:
        return self.matching[point - 1]

    def points_of_pair(self, pair: int) -> tuple[int, int]:
        """The two points of a matched pair, in circle order."""
        return self._points.get(pair, ())

    def partner(self, point: int) -> int:
        a, b = self.points_of_pair(self.pair_of(point))
        return b if point == a else a

    def minus_point(self, pair: int) -> int:
        """The first endpoint of the pair along the circle orientation."""
        return self.points_of_pair(pair)[0]


class ReebChord(NamedTuple):
    """The oriented interval [start, end] in Z minus the basepoint, a plain
    tuple with start < end: `strands._chord_sets` makes only such chords,
    and `serialize.parse_coefficient` checks the ones a file gives."""

    start: int
    end: int


def validate(pmc: PointedMatchedCircle) -> None:
    """Raise unless the matching is 2-to-1 and the surgery yields one circle.

    The surgery check is an explicit traversal: the circle is cut into 4k
    arcs (arc p runs from point p to point p+1, cyclically, with the z-arc
    from 4k back to 1), and oriented surgery at a pair {p, q} redirects the
    arc ending at p to the arc starting at q and vice versa.
    """
    n = len(pmc.matching)
    if n == 0 or n % 4 != 0:
        raise MalformedMatching(f"need 4k points, got {n}")
    if n > MAX_POINTS:
        raise MalformedMatching(f"{n} points exceeds the {MAX_POINTS}-point cap")
    k2 = n // 2
    points = pmc._points
    if sorted(points) != list(range(1, k2 + 1)) or {len(p) for p in points.values()} != {2}:
        raise MalformedMatching(
            f"matching must take each value in 1..{k2} exactly twice")

    # successor(arc ending at x) = arc starting at partner(x); arcs are
    # indexed by their start point, with arc n the one through z.
    def succ(arc: int) -> int:
        return pmc.partner(arc + 1 if arc < n else 1)

    unvisited = set(range(1, n + 1))
    circles = 0
    while unvisited:
        circles += 1
        start = min(unvisited)
        arc = start
        while arc in unvisited:
            unvisited.discard(arc)
            arc = succ(arc)
    if circles != 1:
        raise DisconnectedSurgery(f"surgery yields {circles} circles")


@cache  # a named circle is a constant: built once, the one instance shared
def torus_pmc() -> PointedMatchedCircle:
    return PointedMatchedCircle((1, 2, 1, 2))


@cache
def split_pmc(genus: int) -> PointedMatchedCircle:
    """The split pointed matched circle: genus-1 blocks side by side."""
    matching = []
    for block in range(genus):
        a, b = 2 * block + 1, 2 * block + 2
        matching += [a, b, a, b]
    return PointedMatchedCircle(tuple(matching))


NAMED_PMCS = {
    "torus": torus_pmc,
    "split1": torus_pmc,
    "split2": lambda: split_pmc(2),
    "split3": lambda: split_pmc(3),
}
