"""Random bordered diagrams and the exact integer oracles for their classes.

A diagram is plain incidence data: k (torus k=1, split2 k=2, split3 k=3),
genus g, and signed points (kind, index, beta, sign) with kind "circle" or
"arc".  The oracles here read the intersection matrix straight from the
points; nothing calls bdecat.
"""

from __future__ import annotations

import math
from itertools import combinations


def density(k: int, genus: int, target: int) -> float:
    """Mean points per (beta, alpha-curve) pair that gives about `target`
    generators: a generator matches the g betas to the g-k circles and k of
    the 2k arcs, so the expected count is C(2k, k) g! density^g."""
    return (target / (math.comb(2 * k, k) * math.factorial(genus))) ** (1.0 / genus)


def _poisson(rng, lam: float) -> int:
    limit, n, prod = math.exp(-lam), 0, rng.random()
    while prod > limit:
        n += 1
        prod *= rng.random()
    return n


def curves(k: int, genus: int) -> list[tuple[str, int]]:
    """Alpha-curves in intersection-matrix row order: circles, then arcs."""
    return ([("circle", i) for i in range(1, genus - k + 1)]
            + [("arc", i) for i in range(1, 2 * k + 1)])


def random_points(rng, k: int, genus: int, lam: float) -> list[tuple[str, int, int, int]]:
    points = []
    for beta in range(1, genus + 1):
        for kind, idx in curves(k, genus):
            for _ in range(_poisson(rng, lam)):
                points.append((kind, idx, beta, rng.choice((1, -1))))
    return points


def matrices(k: int, genus: int, points) -> tuple[list[list[int]], list[list[int]]]:
    """(signed intersection matrix, unsigned point counts), rows as `curves`."""
    row_of = {c: r for r, c in enumerate(curves(k, genus))}
    signed = [[0] * genus for _ in row_of]
    counts = [[0] * genus for _ in row_of]
    for kind, idx, beta, sign in points:
        signed[row_of[kind, idx]][beta - 1] += sign
        counts[row_of[kind, idx]][beta - 1] += 1
    return signed, counts


def count_generators(k: int, genus: int, counts) -> int:
    """Generators: one point per beta and per circle, at most one per arc."""
    rows = len(counts)
    circles = (1 << (genus - k)) - 1
    ways = {0: 1}
    for beta in range(genus):
        nxt: dict[int, int] = {}
        for used, n in ways.items():
            for r in range(rows):
                c = counts[r][beta]
                if c and not used >> r & 1:
                    key = used | 1 << r
                    nxt[key] = nxt.get(key, 0) + n * c
        ways = nxt
    return sum(n for used, n in ways.items() if used & circles == circles)


def leibniz_det(rows: list[list[int]]) -> int:
    """det by the Leibniz expansion, skipping permutations through a zero."""
    n = len(rows)

    def expand(r: int, used: list[int], inversions: int, prod: int) -> int:
        if r == n:
            return -prod if inversions % 2 else prod
        total = 0
        for c in range(n):
            v = rows[r][c]
            if v and c not in used:
                later = sum(1 for u in used if u > c)
                used.append(c)
                total += expand(r + 1, used, inversions + later, prod * v)
                used.pop()
        return total

    return expand(0, [], 0, 1)


def deleted(k: int, genus: int, signed, s) -> list[list[int]]:
    """The intersection matrix without the arc rows in the k-subset s."""
    circles = genus - k
    return signed[:circles] + [signed[circles + i - 1]
                               for i in range(1, 2 * k + 1) if i not in s]


def duality_sign(k: int, genus: int, s) -> int:
    """(-1)^(k(g-k)) times the sign of the shuffle (complement of s, s)."""
    seq = sorted(set(range(1, 2 * k + 1)) - set(s)) + sorted(s)
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[j] < seq[i])
    return (-1) ** (k * (genus - k) + inversions)


def circle_minors_gcd(k: int, genus: int, signed) -> int:
    """gcd of the maximal minors of the alpha-circle rows; 0 means infinite
    |H_1(Y, dY)|."""
    top = signed[:genus - k]
    g = 0
    for cols in combinations(range(genus), len(top)):
        g = math.gcd(g, leibniz_det([[row[c] for c in cols] for row in top]))
    return g


def subsets(k: int):
    return combinations(range(1, 2 * k + 1), k)
