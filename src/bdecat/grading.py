"""The unrefined grading group G'(4k), refinement data, and the Z/2 grading m.

Elements of G'(4k) are pairs (j; alpha): j is a Maslov component in (1/4)Z
and alpha is an integer vector of multiplicities over the 4k-1 intervals of
the circle strictly between consecutive marked points (the interval through
the basepoint is excluded; classes never cross z).  The group law twists the
Maslov components by the linking pairing L(alpha, beta) = m(beta, d alpha),
where m(alpha, p) is the average multiplicity of the two intervals adjacent
to the point p.  The central element lambda = (1; 0) generates the kernel of
the projection to homology.

All arithmetic is on integers: an element stores 4j (as LaurentHalf stores
t^(1/2) exponents doubled) and linkings are summed as 2L.  Every element
meets the constraint 4j = #(odd jumps of alpha) mod 4: gr' of a generator
does, and the group law and the inverse keep it, so no element is checked
as it is made.

Refinement data for the middle summand consists of the base pair set s0,
the k pairs whose minus endpoints come first along the circle, and, for
every k-element pair set t, the group element psi(t) = gr'(a(rho^t)) where
rho^t is the chord set joining the minus endpoint of the i-th pair of s0 to
the minus endpoint of the i-th pair of t, both in circle order; every such
chord runs upward, and s0 = {1..k} when pairs are numbered by their first
endpoints.  The Z/2 grading is m = f o gr, where f is the homomorphism
sending lambda and every refined pair-chord grading g_i to 1; `m_table`
holds it under the default refinement for every basis index of A(Z, 0),
computed once per circle.  The class of g_i is the indicator of the
intervals [lo_i, hi_i), so alpha = sum h_i g_i is read off the jumps
c_p = alpha_p - alpha_{p-1}: h_i = c_{lo_i}, and alpha lies in the span
exactly when c_{hi_i} = -h_i for every pair.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .pmc import PointedMatchedCircle
from .strands import AlgebraElement, StrandsGenerator, az_basis, left_right_pairs


def ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms (d > 0), written as str(Fraction(n, d)) writes it:
    the text of a scaled integer (a doubled exponent or Alexander grading, a
    quadrupled Maslov component) in dumps, gradings and messages."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class NotMiddleSummand(ValueError):
    """Refinement data only exists on the weight-k idempotents."""


class NotHomogeneous(ValueError):
    """Element mixes gradings or idempotent pairs."""


class NotInGZ(ValueError):
    """spin^c component is not a span of matched-pair chord classes."""


class NotIntegral(ValueError):
    """A grading quantity that must be an integer is not."""


def _link2(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """2 L(alpha, beta): sum over points of (d alpha)_q (beta_{q-1} + beta_q)."""
    if len(alpha) != len(beta):
        raise ValueError("interval vectors of different ambient circles")
    total = a_prev = b_prev = 0
    for a, b in zip(alpha, beta):
        total += (a_prev - a) * (b_prev + b)
        a_prev, b_prev = a, b
    return total + a_prev * b_prev


class GradingElement(NamedTuple):
    """(j; alpha) in G'(4k), a plain tuple (j4 = 4j, alpha) that meets the
    quarter-integer constraint of the module docstring by construction."""

    j4: int
    alpha: tuple[int, ...]

    def __str__(self):
        return f"({ratio_str(self.j4, 4)}; {','.join(map(str, self.alpha))})"


def lam(n: int) -> GradingElement:
    """The central element lambda = (1; 0)."""
    return GradingElement(4, (0,) * (n - 1))


def gmul(x: GradingElement, y: GradingElement) -> GradingElement:
    """(j + j' + L(alpha, beta); alpha + beta), with 2L as in `_link2`, in one pass."""
    (xj4, xa), (yj4, ya) = x, y
    if len(xa) != len(ya):
        raise ValueError("ambient mismatch")
    alpha = []
    link2 = a_prev = b_prev = 0
    for a, b in zip(xa, ya):
        link2 += (a_prev - a) * (b_prev + b)
        alpha.append(a + b)
        a_prev, b_prev = a, b
    return GradingElement(xj4 + yj4 + 2 * (link2 + a_prev * b_prev), tuple(alpha))


def ginv(x: GradingElement) -> GradingElement:
    alpha = tuple(-a for a in x.alpha)
    return GradingElement(-x.j4 + 2 * _link2(x.alpha, x.alpha), alpha)


def gr_prime_generator(g: StrandsGenerator) -> GradingElement:
    """gr'(a) = (inv(a) - m([a], S); [a])."""
    padded = [0] * (g.n + 1)
    for s, t in g.strands:
        for i in range(s, t):
            padded[i] += 1
    j4 = 4 * g.inversions() - 2 * sum(padded[s - 1] + padded[s] for s in g.S)
    return GradingElement(j4, tuple(padded[1:-1]))


def gr_prime(x: AlgebraElement) -> GradingElement:
    """gr' of a homogeneous element; raises when the terms disagree."""
    grades = {gr_prime_generator(g) for g in x.terms}
    if len(grades) != 1:
        raise NotHomogeneous(f"element has gradings {grades}")
    return next(iter(grades))


class RefinementData(NamedTuple):
    base: frozenset[int]
    psi: dict  # k-element frozenset of pairs -> GradingElement

    def psi_of(self, t) -> GradingElement:
        key = frozenset(t)
        if key not in self.psi:
            raise NotMiddleSummand(f"no refinement element for {set(t)}")
        return self.psi[key]


@lru_cache(maxsize=None)
def default_refinement(pmc: PointedMatchedCircle) -> RefinementData:
    """s0 = the k pairs whose minus points come first; psi(t) = gr'(a(rho^t))
    for each k-element pair set t, taken on the chords alone (homogeneity
    makes all completions agree).  rho^t joins the i-th pair of s0 to the
    i-th pair of t by their minus points, both in circle order.  The i-th
    minus point of s0 is the i-th smallest of all, so no chord runs
    downward, and the boundary of psi(t) is t - s0, as refinement data
    asks.  On a circle whose pairs are numbered by their first endpoints,
    s0 = {1..k} and pair i joins the i-th pair of t."""
    k = pmc.genus
    order = sorted(range(1, 2 * k + 1), key=pmc.minus_point)
    base = order[:k]
    psi = {}
    for t in itertools.combinations(order, k):
        strands = sorted((pmc.minus_point(s), pmc.minus_point(u))
                         for s, u in zip(base, t) if s != u)
        S = tuple(s for s, _ in strands)
        phi = tuple(e for _, e in strands)
        g = StrandsGenerator(pmc.num_points, S, tuple(sorted(phi)), phi)
        psi[frozenset(t)] = gr_prime_generator(g)
    return RefinementData(frozenset(base), psi)


def refine(x: GradingElement, t1, t2, ref: RefinementData) -> GradingElement:
    """gr = psi(t1) gr' psi(t2)^{-1} for an element between idempotents t1, t2."""
    return gmul(gmul(ref.psi_of(t1), x), ginv(ref.psi_of(t2)))


@lru_cache(maxsize=None)
def _pair_chord_data(pmc: PointedMatchedCircle):
    """Pair-chord endpoints (lo_i, hi_i) and integer linkings L(rho_i, rho_j).

    The linking of two pair chords is the intersection a_i . a_j of their
    cores: +1 for the order i, j, i, j along the circle, -1 for j, i, j, i
    and 0 for nested or disjoint pairs, so it is read from
    `PointedMatchedCircle.core_intersection`."""
    ends = tuple(pmc.points_of_pair(i) for i in range(1, 2 * pmc.genus + 1))
    return ends, pmc.core_intersection


@lru_cache(maxsize=None)
def _f_tables(pmc: PointedMatchedCircle, s0: frozenset[int] | None):
    """The integer data of f_s: the point count, each pair chord's (lo, hi)
    with 2 times its half-unit sign (-2 for pairs in s0, which defaults to
    {1..k}), and (i, j, 4 delta_ij) for each nonzero delta_ij with i < j."""
    s0 = frozenset(range(1, pmc.genus + 1)) if s0 is None else s0
    ends, delta = _pair_chord_data(pmc)
    pairs = tuple((lo, hi, -2 if i in s0 else 2) for i, (lo, hi) in enumerate(ends, start=1))
    cross = tuple((i, j, 4 * delta[i][j]) for i in range(len(ends))
                  for j in range(i + 1, len(ends)) if delta[i][j])
    return pmc.num_points, pairs, cross


def f_s(x: GradingElement, pmc: PointedMatchedCircle, s0=None) -> int:
    """The homomorphism G(Z) -> Z/2 in base-idempotent coordinates.

    f(j; h) = j - (1/2) sum_{i in s} h_i + (1/2) sum_{i not in s} h_i
              + sum_{i<j} h_i h_j delta_{ij},  reduced mod 2,

    with h_i the jump of alpha at the lower end of pair chord i.  Alpha lies
    in the span of the pair chords exactly when every upper end jumps by
    -h_i; `NotInGZ` is raised otherwise.
    """
    n, pairs, cross = _f_tables(pmc, None if s0 is None else frozenset(s0))
    alpha = x.alpha
    if len(alpha) != n - 1:
        raise ValueError(f"alpha={alpha} does not live on {n} points")
    padded = (0, *alpha, 0)
    h = []
    total4 = x.j4
    for lo, hi, sign2 in pairs:
        c = padded[lo] - padded[lo - 1]
        if padded[hi] - padded[hi - 1] != -c:
            raise NotInGZ(f"alpha={alpha} is not in the span of pair chords")
        h.append(c)
        total4 += sign2 * c
    for i, j, delta4 in cross:
        total4 += delta4 * h[i] * h[j]
    if total4 % 4:
        raise NotIntegral(f"f_s({x}) is not an integer")
    return (total4 // 4) % 2


def m_of(x: AlgebraElement, pmc: PointedMatchedCircle,
         ref: RefinementData | None = None) -> int:
    """m(a) = f(gr(a)) for a homogeneous middle-summand element."""
    ref = ref or default_refinement(pmc)
    s, t = left_right_pairs(pmc, x)
    if len(s) != pmc.genus or len(t) != pmc.genus:
        raise NotMiddleSummand(f"idempotent weights {len(s)}, {len(t)}")
    return f_s(refine(gr_prime(x), s, t, ref), pmc, ref.base)


@lru_cache(maxsize=None)
def m_table(pmc: PointedMatchedCircle) -> tuple[int, ...]:
    """m under the default refinement of each element of `az_basis(pmc)`, by index."""
    return tuple(m_of(el, pmc) for el in az_basis(pmc).elements)
