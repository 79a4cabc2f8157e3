"""Combinatorial bordered Heegaard diagrams and the intersection-matrix theorem.

A diagram is pure incidence data: a pointed matched circle for the boundary
(2k alpha-arcs, ordered by their first endpoints), g-k alpha-circles, g
beta-circles, and a list of signed intersection points.  Generators pick one
point on each beta-circle, one on each alpha-circle, and at most one on each
alpha-arc; the sign of a generator is

    s(x) = sign(sigma_{o(x)}) * sign(sigma_x) * product of point signs,

where sigma_x reads off the beta indices along the occupied alpha-curves
(arcs first, then circles) and sigma_{o(x)} sorts (J(o), J(complement))
inside S_{2k}.

[CFD(H)] sums these signs per unoccupied arc set.  `enumerated_class`
computes it without listing a generator: it sweeps the betas in order over
the bitmask of occupied alpha-curves (arcs first, then circles, the sigma_x
order), with a signed integer per mask and the net signs as its moves;
placing beta b on curve pos adds one inversion to sigma_x per occupied
curve after pos, since b exceeds every beta placed before it.  A generator
occupies g distinct curves, all g - k circles among them, so exactly k
arcs; the sweep keeps only the partial states with at most k arcs, which
are exactly those whose missing circles the remaining betas can still
fill, and every state that survives the last beta is a generator class.
`enumerate_generators` lists the generators one by one; it is the oracle
the tests compare the sweep with.

The sweep and M(H) below see the points only through their net signs.  A
diagram checks its points and folds them in one pass, as it is built, into
`net_signs`: per beta b, a dict from curve to the sum of the signs of the
points on (that curve, b), the curves numbered as the sweep's bits (arc i
is i - 1, circle j is 2k + j - 1).  A curve whose points cancel keeps the
entry 0, which the sweep skips.  `DiagramPoint` itself checks nothing.  The
fault-order rule: the genus and the alpha-circle count are checked first,
then the points in file order, each point's sign, alpha kind and index, and
beta in turn; the first fault is the one raised.  The file reader has by
then rejected any field of the wrong type and any alpha text it cannot
read.

The signed intersection matrix M(H) has a row per alpha-circle followed by a
row per alpha-arc and a column per beta-circle.  Deleting the arc rows named
by a k-element subset s leaves a square matrix whose determinant counts the
generators with unoccupied arc set s, up to the fixed sign
(-1)^{k(g-k)} sign(sigma_{complement of s}).  Every such matrix shares the
g-k circle rows, so they are reduced once per diagram (`circle_reduction`):
unimodular column operations U, det U = eps = +-1, give

    M(H) U = [[H, 0], [*, Y]],  H lower triangular, Y the 2k x k arc block,

and det M(H)_s = eps * det H * det Y_{s^c}, a k x k minor, with Y_{s^c} the
arc rows outside s.  The same reduction gives |H_1(Y, dY)| = |det H|, the
rank defect b1 of the circle rows (every coefficient is 0 when b1 > 0), and
the top wedge of the kernel of H_1(F) -> H_1(Y): the k x k minors of
(J^T)^-1 Y.  Here J (unrelated to the J of sigma_o) is the circle's core
intersection form, J[i][j] = a_i . a_j = +1 = -J[j][i] when the points of
pairs i and j come in the order i, j, i, j along the circle, and 0 when the
pairs do not interleave (`PointedMatchedCircle.core_intersection`).  A
column of Y counts a class x on the arcs, n_j = x . a_j, so (J^T)^-1 turns
those counts into the core coordinates of x.  On a split circle (J^T)^-1
is the signed swap of each matched pair.  A row operation commutes with
column operations, so the conversion needs no second reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

from .grothendieck import ExteriorClass, class_from_terms
from .linalg import column_echelon, det_int, inverse_unimodular
from .pmc import PointedMatchedCircle


class TheoremViolation(AssertionError):
    pass


# ---------------------------------------------------------------------------
# diagrams


class DiagramPoint(NamedTuple):
    """Intersection point record (alpha, beta, sign, id), a plain tuple; the
    diagram checks its fields, in the one pass it makes over its points."""

    alpha: tuple[str, int]  # ("arc", i) with i in [2k], or ("circle", i)
    beta: int
    sign: int
    id: int = 0


@dataclass(frozen=True)
class DiagramGenerator:
    points: tuple[DiagramPoint, ...]
    occupied: frozenset[int]
    sign: int


@dataclass
class BorderedDiagram:
    pmc: PointedMatchedCircle
    genus: int
    alpha_circles: int
    points: tuple[DiagramPoint, ...] = ()
    # beta b - 1 -> {curve: net sign}, as in the module docstring
    net_signs: list[dict[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the genus and the alpha-circle count, then each point in
        order (its sign, its alpha kind and index, its beta), and fold the
        points into `net_signs` in the same pass; the first fault in that
        order is the one raised.  The points are kept as a tuple, since
        everything read from them is computed once."""
        k, h, g = self.pmc.genus, self.alpha_circles, self.genus
        if g < k:
            raise ValueError(f"genus {g} is below the boundary genus {k}")
        if h != g - k:
            raise ValueError(f"need g - k = {g - k} alpha-circles, got {h}")
        arcs = 2 * k
        self.points = tuple(self.points)
        self.net_signs = table = [{} for _ in range(g)]
        for (kind, idx), beta, sign, _ in self.points:
            if sign not in (1, -1):
                raise ValueError("point sign must be +1 or -1")
            if kind == "arc":
                if not 1 <= idx <= arcs:
                    raise ValueError(f"arc index {idx} outside [2k]")
                pos = idx - 1
            elif kind != "circle":
                raise ValueError(f"bad alpha kind {kind}")
            elif 1 <= idx <= h:
                pos = arcs + idx - 1
            else:
                raise ValueError(f"circle index {idx} out of range")
            if not 1 <= beta <= g:
                raise ValueError(f"beta index {beta} out of range")
            row = table[beta - 1]
            row[pos] = row.get(pos, 0) + sign
        # a beta circle meeting no alpha curve is allowed; it just kills
        # every generator and zeroes the intersection matrix column

    @cached_property
    def k(self) -> int:
        """Read once: a diagram is fixed once built."""
        return self.pmc.genus

    @cached_property
    def circle_reduction(self) -> tuple[int, int, list[list[int]]]:
        """(b1, eps * det H, Y) as in the module docstring, eps * det H = 0
        when b1 > 0; computed on first use: a diagram is fixed once built."""
        reduced, pivots, eps = column_echelon(intersection_matrix(self),
                                              self.alpha_circles)
        b1 = self.alpha_circles - len(pivots)
        det_h = eps if b1 == 0 else 0
        for c in pivots:
            det_h *= reduced[c][c]
        return b1, det_h, [row[len(pivots):] for row in reduced[self.alpha_circles:]]


def _perm_sign(seq) -> int:
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[j] < seq[i])
    return -1 if inv % 2 else 1


def sigma_o_sign(k: int, occupied) -> int:
    """Sign of the permutation (1..k) -> J(o), (k+1..2k) -> J(complement).

    The i-th smallest occupied j comes before the j - i complement entries
    below it, so the inversions number sum(occupied) - m(m+1)/2 for m
    occupied entries, whatever k is."""
    m = len(occupied)
    return -1 if (sum(occupied) - m * (m + 1) // 2) % 2 else 1


def enumerate_generators(d: BorderedDiagram) -> list[DiagramGenerator]:
    """All matchings: one point per beta, one per circle, at most one per arc.

    The test oracle for `enumerated_class`; nothing in the package calls it.
    """
    by_beta: dict[int, list[DiagramPoint]] = {b: [] for b in range(1, d.genus + 1)}
    for p in d.points:
        by_beta[p.beta].append(p)
    out: list[DiagramGenerator] = []

    def search(beta: int, chosen: list[DiagramPoint],
               arcs_used: set[int], circles_used: set[int]):
        if beta > d.genus:
            if len(circles_used) != d.alpha_circles:
                return
            arc_pts = sorted((p for p in chosen if p.alpha[0] == "arc"),
                             key=lambda p: p.alpha[1])
            circ_pts = sorted((p for p in chosen if p.alpha[0] == "circle"),
                              key=lambda p: p.alpha[1])
            seq = [p.beta for p in arc_pts + circ_pts]
            total = _perm_sign(seq) * sigma_o_sign(d.k, arcs_used)
            for p in chosen:
                total *= p.sign
            out.append(DiagramGenerator(
                points=tuple(arc_pts + circ_pts),
                occupied=frozenset(arcs_used),
                sign=total))
            return
        remaining = d.genus - beta + 1
        if len(circles_used) + remaining < d.alpha_circles:
            return
        for p in by_beta[beta]:
            kind, idx = p.alpha
            if kind == "arc":
                if idx in arcs_used:
                    continue
                arcs_used.add(idx)
                search(beta + 1, chosen + [p], arcs_used, circles_used)
                arcs_used.discard(idx)
            else:
                if idx in circles_used:
                    continue
                circles_used.add(idx)
                search(beta + 1, chosen + [p], arcs_used, circles_used)
                circles_used.discard(idx)

    search(1, [], set(), set())
    return out


def intersection_matrix(d: BorderedDiagram) -> list[list[int]]:
    """(g+k) x g signed counts: alpha-circle rows, then alpha-arc rows."""
    h, arcs = d.alpha_circles, 2 * d.k
    rows = [[0] * d.genus for _ in range(h + arcs)]
    for b, row in enumerate(d.net_signs):
        for pos, c in row.items():
            rows[pos - arcs if pos >= arcs else h + pos][b] = c
    return rows


def cfd_class_from_determinants(d: BorderedDiagram) -> ExteriorClass:
    """Coefficient of a_s is det of M(H) with the s arc rows deleted,
    eps * det H times the k x k minor of Y on the arc rows outside s.

    The complements of the k-subsets of [2k], taken in lexicographic order,
    are the k-subsets in reverse lexicographic order, so the kept rows come
    from one reversed run of combinations."""
    k = d.k
    _, det_h, arcs = d.circle_reduction
    if not det_h:
        return ExteriorClass(k, {})
    kept = reversed(list(itertools.combinations(arcs, k)))
    return class_from_terms(k, (
        (s, 0, det_h * det_int(rows))
        for s, rows in zip(itertools.combinations(range(1, 2 * k + 1), k), kept)))


def enumerated_class(d: BorderedDiagram) -> ExteriorClass:
    """[CFD(H)]: signed generator count per unoccupied arc set.

    One sweep over the betas of `net_signs`; the state is the bitmask of
    occupied alpha-curves (bit i - 1 for arc i, bit 2k + j - 1 for circle
    j) and its value the signed count of the partial generators that occupy
    it.  A generator puts the g betas on g distinct curves and uses all
    g - k circles, so exactly k arcs: a state holding k arcs takes only
    circle moves.  A state that survives all g betas then holds g curves,
    at most k of them arcs, so it holds every circle and needs no final
    filter.  Its k free arcs s name the coefficient, and sigma_o has
    sum(occupied) - k(k+1)/2 = k(3k+1)/2 - sum(s) inversions.  A state whose
    count cancels to 0 is skipped where it is read."""
    k, arcs = d.k, 2 * d.k
    arc_bits = (1 << arcs) - 1
    counts = {0: 1}
    for row in d.net_signs:
        # (bit, the curves after pos, c): the betas there are smaller, so
        # each adds an inversion to sigma_x
        moves = [(1 << pos, -2 << pos, c) for pos, c in row.items() if c]
        circle_moves = [m for m in moves if m[0] > arc_bits]
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, n in counts.items():
            if not n:
                continue
            full = (mask & arc_bits).bit_count() == k
            for bit, after, c in circle_moves if full else moves:
                if not mask & bit:
                    term = -n * c if (mask & after).bit_count() & 1 else n * c
                    key = mask | bit
                    nxt[key] = get(key, 0) + term
        counts = nxt
    base = k * (3 * k + 1) // 2
    terms = []
    for mask, n in counts.items():
        s = [i for i in range(1, arcs + 1) if not mask >> (i - 1) & 1]
        terms.append((s, 0, -n if (base - sum(s)) & 1 else n))
    return class_from_terms(k, terms)


def duality_sign(d: BorderedDiagram, s) -> int:
    """The constant relating det M(H)_s to the signed generator count, for a
    collection s of distinct arcs: sigma_o of the complement of s, whose m
    = 2k - |s| entries sum to k(2k + 1) - sum(s), times the circle block's
    sign (-1)^(k(g-k))."""
    k = d.k
    m = 2 * k - len(s)
    inversions = k * (2 * k + 1) - sum(s) - m * (m + 1) // 2 + k * d.alpha_circles
    return -1 if inversions & 1 else 1


@dataclass
class HomologyKernel:
    b1_rel: int
    order: int | None  # None means infinite
    kernel_wedge: ExteriorClass


@cache
def core_coordinates(pmc: PointedMatchedCircle) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse rows of (J^T)^-1, J = `pmc.core_intersection`: row i lists the
    (j, v) with v != 0, so that a class x with x . a_j = n_j for every arc j
    has core coordinate c_i = sum of v * n_j (indices from 0).  J is
    unimodular, so the inverse is integral.  Kept per matching, since
    callers build equal circles afresh; there are finitely many within the
    point cap."""
    inv = inverse_unimodular([list(col) for col in zip(*pmc.core_intersection)])
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in inv)


def homology_kernel(d: BorderedDiagram) -> HomologyKernel:
    """Rank defect, |H_1(Y, dY)|, and the top wedge of ker(H_1(F) -> H_1(Y)),
    read off `circle_reduction`.

    Each column n of Y is a combination of beta-circles that misses every
    alpha-circle, with n_j its signed count on arc j.  Its class in H_1(F)
    is sum c_i a_i with n_j = sum c_i (a_i . a_j), that is n = J^T c for the
    circle's intersection form J (`PointedMatchedCircle.core_intersection`),
    so c = (J^T)^-1 n, read from the sparse rows of `core_coordinates`.
    The wedge takes the k x k minors of those core coordinates.  On a split
    circle (J^T)^-1 is a signed swap in matched pairs: c_{2i-1} = n_{2i} and
    c_{2i} = -n_{2i-1}.
    """
    k = d.k
    b1, det_h, arcs = d.circle_reduction
    if b1 > 0:
        return HomologyKernel(b1, None, ExteriorClass(k, {}))
    coords = [[sum(v * arcs[j][col] for j, v in entries) for col in range(k)]
              for entries in core_coordinates(d.pmc)]
    wedge = class_from_terms(k, (
        (s, 0, det_int(rows))
        for s, rows in zip(itertools.combinations(range(1, 2 * k + 1), k),
                           itertools.combinations(coords, k))))
    return HomologyKernel(0, abs(det_h), wedge)


def h1_rel_order_oracle(d: BorderedDiagram) -> int | None:
    """|Z^{g-k} / im(C)|, C the alpha-circle rows of M(H), as the gcd of the
    maximal minors of C, each by `det_int`; None when every minor vanishes
    (the order is infinite).  It shares no code with `circle_reduction`."""
    top = intersection_matrix(d)[: d.alpha_circles]
    order = math.gcd(*(det_int([[row[c] for c in cols] for row in top])
                       for cols in itertools.combinations(range(d.genus), len(top))))
    return order or None


def verify_cfdker(d: BorderedDiagram) -> tuple[HomologyKernel, ExteriorClass]:
    """Check span[CFD] = |H_1(Y, dY)| * Lambda^k ker(i*) on this diagram;
    return the homology kernel and the class [CFD] it was compared with.

    The comparison uses the signed generator count of `enumerated_class`,
    computed by its beta sweep without listing a generator (it equals the
    determinants twisted by the per-subset duality sign), componentwise up to
    one global sign.
    """
    hk = homology_kernel(d)
    cls = enumerated_class(d)
    if hk.b1_rel > 0:
        if cls:
            raise TheoremViolation(
                f"b1(Y, dY) = {hk.b1_rel} > 0 but [CFD] = {cls}")
        return hk, cls
    target = hk.kernel_wedge.scale(hk.order)
    if not target and not cls:
        return hk, cls
    for eps in (1, -1):
        if cls.scale(eps) == target:
            return hk, cls
    raise TheoremViolation(
        f"[CFD] = {cls} is not +-{hk.order} * kernel wedge {hk.kernel_wedge}")
