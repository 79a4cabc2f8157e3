"""Reference grading arithmetic in `fractions`, for testing bdecat.grading.

These are the rational-arithmetic formulas that the integer core must agree
with: the group law twisted by the linking pairing, gr' of a strands
generator, pair-chord coordinates by Gaussian elimination over Q, the
homomorphism f_s, and m = f o gr with the default refinement.  A grading is
a plain (j, alpha) pair, so nothing here depends on GradingElement.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from bdecat.grading import NotHomogeneous, NotInGZ, NotMiddleSummand
from bdecat.strands import left_right_pairs
from tests.helpers import checked_strands_generator


def multiplicity(alpha, p) -> Fraction:
    def get(i):
        return alpha[i - 1] if 1 <= i <= len(alpha) else 0
    return Fraction(get(p - 1) + get(p), 2)


def linking(alpha, beta) -> Fraction:
    """L(alpha, beta) = m(beta, d alpha)."""
    total = Fraction(0)
    for q in range(1, len(alpha) + 2):
        left = alpha[q - 2] if q >= 2 else 0
        right = alpha[q - 1] if q <= len(alpha) else 0
        total += (left - right) * multiplicity(beta, q)
    return total


def gmul(x, y):
    (jx, ax), (jy, ay) = x, y
    return (jx + jy + linking(ax, ay), tuple(a + b for a, b in zip(ax, ay)))


def ginv(x):
    j, alpha = x
    return (-j + linking(alpha, alpha), tuple(-a for a in alpha))


def gr_prime_generator(g: StrandsGenerator):
    alpha = [0] * (g.n - 1)
    for s, t in g.strands:
        for i in range(s, t):
            alpha[i - 1] += 1
    alpha = tuple(alpha)
    j = g.inversions() - sum((multiplicity(alpha, s) for s in g.S), Fraction(0))
    return (j, alpha)


def gr_prime(x):
    grades = {gr_prime_generator(g) for g in x.terms}
    if len(grades) != 1:
        raise NotHomogeneous(f"element has gradings {grades}")
    return next(iter(grades))


def pair_chord_vectors(pmc):
    out = []
    for i in range(1, 2 * pmc.genus + 1):
        lo, hi = pmc.points_of_pair(i)
        out.append(tuple(1 if lo <= p < hi else 0 for p in range(1, pmc.num_points)))
    return out


def h_coordinates(pmc, alpha):
    """Exact Gaussian elimination of alpha against the pair-chord vectors."""
    vectors = pair_chord_vectors(pmc)
    cols, rows = len(vectors), len(alpha)
    mat = [[Fraction(vectors[j][i]) for j in range(cols)] + [Fraction(alpha[i])]
           for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if mat[i][cols] != 0:
            raise NotInGZ(f"alpha={alpha} is not in the span of pair chords")
    h = [0] * cols
    for idx, c in enumerate(pivots):
        val = mat[idx][cols]
        if val.denominator != 1:
            raise NotInGZ(f"alpha={alpha} needs fractional coefficients")
        h[c] = int(val)
    return tuple(h)


def f_s(x, pmc, s0=None) -> int:
    j, alpha = x
    if s0 is None:
        s0 = frozenset(range(1, pmc.genus + 1))
    h = h_coordinates(pmc, alpha)
    vectors = pair_chord_vectors(pmc)
    total = Fraction(j)
    for i, hi in enumerate(h, start=1):
        total += Fraction(hi, 2) * (1 if i not in s0 else -1)
    for i in range(len(h)):
        for k in range(i + 1, len(h)):
            total += h[i] * h[k] * linking(vectors[i], vectors[k])
    if total.denominator != 1:
        raise ValueError(f"f_s({x}) is not an integer")
    return int(total) % 2


def refinement(pmc):
    """(s0, psi): s0 the k pairs with the first minus endpoints, and psi(t)
    gr' of the chords joining the minus endpoints of the i-th pairs of s0
    and of t, pairs in the order of their minus endpoints; each chord is
    checked to run upward."""
    k = pmc.genus
    s0 = sorted(range(1, 2 * k + 1), key=pmc.minus_point)[:k]
    psi = {}
    for t in itertools.combinations(range(1, 2 * k + 1), k):
        ts = sorted(t, key=pmc.minus_point)
        strands = sorted((pmc.minus_point(i), pmc.minus_point(ti))
                         for i, ti in zip(s0, ts) if i != ti)
        if not strands:
            psi[frozenset(t)] = (Fraction(0), (0,) * (pmc.num_points - 1))
            continue
        S = tuple(s for s, _ in strands)
        phi = tuple(e for _, e in strands)
        g = checked_strands_generator(pmc.num_points, S, tuple(sorted(phi)), phi)
        psi[frozenset(t)] = gr_prime_generator(g)
    return frozenset(s0), psi


def m_of(x, pmc) -> int:
    s0, psi = refinement(pmc)
    s, t = left_right_pairs(pmc, x)
    if len(s) != pmc.genus or len(t) != pmc.genus:
        raise NotMiddleSummand(f"idempotent weights {len(s)}, {len(t)}")
    refined = gmul(gmul(psi[s], gr_prime(x)), ginv(psi[t]))
    return f_s(refined, pmc, s0)
