"""The strands algebra A(n,k) and the subalgebra A(Z) of a matched circle.

Generators of A(n,k) are partial permutations (S, T, phi): S and T are
k-element subsets of [n] and phi: S -> T is a bijection with phi(i) >= i for
every i in S (horizontal and upward-veering strands).  Multiplication
composes when the inversion counts add exactly, and the differential resolves
one crossing at a time, keeping only resolutions that drop the inversion
count by exactly one.  Everything is linear over F2: an algebra element is a
finite set of generators, and sums cancel in pairs.

For a pointed matched circle Z the subalgebra A(Z) is spanned by the
elements a(rho, s): rho a set of Reeb chords with distinct starting points
and distinct ending points, s a set of matched pairs containing M(starts)
with the leftover pairs disjoint from M(ends).  The element a(rho, s) is the
sum over all ways of occupying each leftover pair by one of its two points
as a horizontal strand.  Distinct (rho, s) give disjoint sets of generators,
which makes decomposition into this basis a lookup rather than linear
algebra.  `AZBasis` multiplies two basis elements on their labels (rho, s)
alone, and its product table builds no strand diagram.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .pmc import PointedMatchedCircle, ReebChord, torus_pmc


class AmbientMismatch(ValueError):
    """Operands live in strands algebras with different point counts."""


class StrandsGenerator(NamedTuple):
    """A basis element (S, T, phi) of A(n, k), a plain tuple: S and T
    sorted, and phi, the images of S in order, an upward bijection S -> T
    inside [n].  Nothing checks this as a record is made: no file gives
    one, and every maker builds only such records, the basis of A(Z) and
    the differential with `tuple.__new__`."""

    n: int
    S: tuple[int, ...]
    T: tuple[int, ...]
    phi: tuple[int, ...]

    @property
    def strands(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.S, self.phi))

    def inversions(self) -> int:
        phi = self.phi
        return sum(1 for i in range(len(phi)) for j in range(i + 1, len(phi))
                   if phi[j] < phi[i])

    def __str__(self):
        src = "{" + ",".join(map(str, self.S)) + "}"
        dst = "{" + ",".join(map(str, self.T)) + "}"
        img = "[" + ",".join(map(str, self.phi)) + "]"
        return f"{src}->{dst}:{img}"


class AlgebraElement:
    """An F2-linear combination of strands generators, homogeneous in k;
    immutable, compared and hashed by (n, terms)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        terms = frozenset(terms)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        if len({len(g.S) for g in terms}) > 1:
            raise ValueError("mixed strand counts in one element")
        for g in terms:
            if g.n != n:
                raise AmbientMismatch("term with wrong ambient point count")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return AlgebraElement, (self.n, self.terms)

    def __eq__(self, other):
        return ((self.n, self.terms) == (other.n, other.terms)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self):
        return f"AlgebraElement(n={self.n!r}, terms={self.terms!r})"

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.n != other.n:
            raise AmbientMismatch(f"{self.n} vs {other.n}")
        return AlgebraElement(self.n, self.terms ^ other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(str(g) for g in sorted(self.terms))


def multiply_generators(a: StrandsGenerator, b: StrandsGenerator) -> StrandsGenerator | None:
    """Compose two generators; None when the product is zero.  The
    composite of two upward bijections is one, so it needs no check."""
    if a.n != b.n:
        raise AmbientMismatch(f"{a.n} vs {b.n}")
    if a.T != b.S:
        return None
    pos = {s: i for i, s in enumerate(b.S)}
    phi = tuple(b.phi[pos[t]] for t in a.phi)
    prod = StrandsGenerator(a.n, a.S, b.T, phi)
    if prod.inversions() != a.inversions() + b.inversions():
        return None
    return prod


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    if x.n != y.n:
        raise AmbientMismatch(f"{x.n} vs {y.n}")
    acc: set[StrandsGenerator] = set()
    for a in x.terms:
        for b in y.terms:
            p = multiply_generators(a, b)
            if p is not None:
                acc ^= {p}
    return AlgebraElement(x.n, frozenset(acc))


def differential_generator(a: StrandsGenerator) -> set[StrandsGenerator]:
    """Resolutions of single crossings that drop inv by exactly one.  Swapping
    the images of a crossing i < j keeps S, T and the bijection, and both new
    strands run upward (phi[j] >= S[j] > S[i], phi[i] > phi[j] >= S[j]), so
    every resolution is a generator, built with `tuple.__new__`."""
    out: set[StrandsGenerator] = set()
    inv = a.inversions()
    n, S, T, _ = a
    phi = list(a.phi)
    new = tuple.__new__
    m = len(phi)
    for i in range(m):
        for j in range(i + 1, m):
            if phi[j] < phi[i]:
                swapped = phi[:]
                swapped[i], swapped[j] = swapped[j], swapped[i]
                res = new(StrandsGenerator, (n, S, T, tuple(swapped)))
                if res.inversions() == inv - 1:
                    out ^= {res}
    return out


def differential(x: AlgebraElement) -> AlgebraElement:
    acc: set[StrandsGenerator] = set()
    for g in x.terms:
        acc ^= differential_generator(g)
    return AlgebraElement(x.n, frozenset(acc))


def left_right_pairs(pmc: PointedMatchedCircle, x: AlgebraElement) -> tuple[frozenset[int], frozenset[int]]:
    """The unique (s, t) with I(s) x I(t) = x; raises when x is inhomogeneous."""
    if not x.terms:
        raise ValueError("zero element has no idempotent pair")
    ss = {frozenset(pmc.pair_of(p) for p in g.S) for g in x.terms}
    ts = {frozenset(pmc.pair_of(p) for p in g.T) for g in x.terms}
    if len(ss) != 1 or len(ts) != 1:
        raise ValueError("element is not idempotent-homogeneous")
    return next(iter(ss)), next(iter(ts))


def _basis_element(pmc: PointedMatchedCircle, rho, s) -> AlgebraElement:
    """a(rho, s): all completions of rho by sections of the leftover pairs,
    each a valid generator by construction, built with `tuple.__new__`."""
    n, new = pmc.num_points, tuple.__new__
    extra = sorted(s - {pmc.pair_of(c.start) for c in rho})
    choices = [pmc.points_of_pair(p) for p in extra]
    acc = set()
    for pick in itertools.product(*choices):
        strands = sorted([(c.start, c.end) for c in rho] + [(p, p) for p in pick])
        S = tuple(x for x, _ in strands)
        phi = tuple(y for _, y in strands)
        acc.add(new(StrandsGenerator, (n, S, tuple(sorted(phi)), phi)))
    return AlgebraElement(n, frozenset(acc))


@cache
def _chord_sets(pmc: PointedMatchedCircle, size: int) -> tuple:
    """The chord sets of this size with M injective on the starts and on the
    ends, chords by ascending start; each extends a set one smaller, so each
    size is listed once per circle, whichever summands ask for it."""
    if not size:
        return ((),)
    n, pair_of, new, out = pmc.num_points, pmc.pair_of, tuple.__new__, []
    for rho in _chord_sets(pmc, size - 1):
        starts = {pair_of(c.start) for c in rho}
        ends = {pair_of(c.end) for c in rho}
        out += [rho + (new(ReebChord, (a, b)),) for a in range(rho[-1].start + 1 if rho else 1, n + 1)
                if pair_of(a) not in starts for b in range(a + 1, n + 1) if pair_of(b) not in ends]
    return tuple(out)


@lru_cache(maxsize=None)
def basis_of_AZ(pmc: PointedMatchedCircle, i: int) -> tuple[AlgebraElement, ...]:
    """An F2-basis of A(Z, i), as elements a(rho, s) = I(s) a(rho) I(t)."""
    k = pmc.genus
    count = k + i
    if not 0 <= count <= 2 * k:
        return ()
    all_pairs = set(range(1, 2 * k + 1))
    basis = []
    for rho in itertools.chain.from_iterable(_chord_sets(pmc, m) for m in range(count + 1)):
        start_pairs = {pmc.pair_of(c.start) for c in rho}
        end_pairs = {pmc.pair_of(c.end) for c in rho}
        candidates = sorted(all_pairs - start_pairs - end_pairs)
        for extra in itertools.combinations(candidates, count - len(rho)):
            s = frozenset(start_pairs | set(extra))
            basis.append(_basis_element(pmc, rho, s))
    return tuple(sorted(basis, key=lambda e: sorted(e.terms)))


class AZBasis:
    """Indexed basis of A(Z, i) with label-based decomposition, the label
    and idempotents of each element, and the product and differential tables
    by index, each built once on first use.  Modules store coefficients as
    indices.  `is_torus` says once per basis whether its circle is the torus
    circle, whose elements have names, so no per-edge code compares circles."""

    def __init__(self, pmc: PointedMatchedCircle, i: int = 0):
        self.pmc = pmc
        self.i = i
        self.is_torus = pmc == torus_pmc()
        self.elements = basis_of_AZ(pmc, i)

    def __len__(self):
        return len(self.elements)

    def __reduce__(self):  # a copy builds its own tables, on first use
        return AZBasis, (self.pmc, self.i)

    def decompose(self, x: AlgebraElement) -> tuple[int, ...]:
        """Indices of the basis elements whose F2-sum is x.  A term on this
        circle is in the element `by_label` gives for its `_label`, as every
        completion of a label is a term of its element, and in no element
        when it has no label there."""
        n = self.pmc.num_points
        remaining = set(x.terms)
        indices = set()
        while remaining:
            g = next(iter(remaining))
            idx = self.by_label.get(self._label(g)) if g.n == n else None
            if idx is None:
                raise ValueError(f"term {g} is not in A(Z, {self.i})")
            el = self.elements[idx].terms
            if not el <= remaining:
                raise ValueError(f"{x} is not in the span of A(Z, {self.i})")
            remaining -= el
            indices ^= {idx}
        return tuple(sorted(indices))

    @cached_property
    def idempotents(self) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
        """The (left, right) pair sets of each element, by `left_right_pairs`."""
        return tuple(left_right_pairs(self.pmc, el) for el in self.elements)

    def _label(self, g: StrandsGenerator):
        """The label (rho, s) of which the term g, on this circle, is a
        completion: its moving strands as ascending (start, end) pairs and
        the pair set of its start points; None when two of them share a pair."""
        s = frozenset(map(self.pmc.pair_of, g.S))
        if len(s) == len(g.S):
            return tuple((a, b) for a, b in zip(g.S, g.phi) if a != b), s
        return None

    @cached_property
    def labels(self) -> tuple[tuple[tuple[tuple[int, int], ...], frozenset[int]], ...]:
        """The label (rho, s) of each a(rho, s), the `_label` every term
        shares: its chords as ascending (start, end) pairs and its left pair
        set."""
        return tuple(self._label(next(iter(el.terms))) for el in self.elements)

    @cached_property
    def by_label(self) -> dict:
        """The label (rho, s) of a(rho, s), keyed as in `labels` -> its index."""
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def idempotent_indices(self) -> frozenset[int]:
        """The indices of the idempotents I(s), the elements with no moving strand."""
        return frozenset(i for i, (rho, _) in enumerate(self.labels) if not rho)

    @cached_property
    def by_left(self) -> MappingProxyType:
        """Left pair set s -> the ascending indices of the elements in I(s) A."""
        buckets: dict[frozenset[int], list[int]] = {}
        for j, (s, _) in enumerate(self.idempotents):
            buckets.setdefault(s, []).append(j)
        return MappingProxyType({s: tuple(js) for s, js in buckets.items()})

    @cached_property
    def _chord_maps(self) -> tuple[tuple[dict, dict, int, int], ...]:
        """Per index: its chords as {end: start} and {start: end}, the bitmask
        of its start points and the bitmask of the partners of its end points."""
        partner = self.pmc.partner
        return tuple(({b: a for a, b in rho}, dict(rho), sum(1 << a for a, _ in rho),
                      sum(1 << partner(b) for _, b in rho))
                     for rho, _ in self.labels)

    def product(self, i: int, j: int) -> tuple[int, ...]:
        """decompose(e_i e_j) read off the two labels; no strand diagram is built.

        Write e_i = a(rho1, s1) and e_j = a(rho2, s2).  The product is 0 unless
        s2 is the right pair set of e_i and each chord of rho2 starts at an end
        of rho1 (that point, not its partner) or in a leftover pair of s1,
        where e_i's horizontal strand is forced onto the start.  When s2 is
        that right pair set, the only way to fail the second condition is to
        start at the partner of an end of rho1, which the masks test.  An end
        of rho1 that starts no chord of rho2 is met by a forced horizontal of
        e_j.  The two halves then compose into one strand per middle point,
        and the product is a(rho', s1) for their chords rho', or 0 when two
        of them cross in both halves.  The horizontals of the leftover pairs
        that both sides keep never cross a strand twice, because every strand
        runs upward, so one test decides for all of their completions."""
        (rho1, s1), (rho2, _) = self.labels[i], self.labels[j]
        ends, _, _, partners = self._chord_maps[i]
        _, starts, start_mask, _ = self._chord_maps[j]
        if self.idempotents[i][1] != self.idempotents[j][0] or start_mask & partners:
            return ()
        # strands through middle points x < y cross twice iff both their
        # starts and their ends are inverted: x must start a chord of rho2
        # and y must end a chord of rho1
        for x, bx in rho2:
            ax = ends.get(x, x)
            for ay, y in rho1:
                if x < y and ay < ax and starts.get(y, y) < bx:
                    return ()
        rho = [(a, starts.get(b, b)) for a, b in rho1]
        rho += [(a, b) for a, b in rho2 if a not in ends]
        rho.sort()
        label = (tuple(rho), s1)
        index = self.by_label.get(label)
        if index is None:
            raise ValueError(f"product label {label} of {i} and {j} is not in A(Z, {self.i})")
        return (index,)

    @cached_property
    def products(self) -> MappingProxyType:
        """(i, j) -> `product(i, j)` for every pair with a nonzero product,
        i and j ascending as over all pairs.

        Only the e_j whose left pair set is the right one of e_i are tried,
        and of those only the ones with no start point at a partner of an end
        of e_i; that list depends on e_i only through the two, so it is built
        once per distinct right pair set and partner mask."""
        by_left, maps, product = self.by_left, self._chord_maps, self.product
        followers: dict[tuple[frozenset[int], int], tuple[int, ...]] = {}
        table = {}
        for i, (_, t) in enumerate(self.idempotents):
            partners = maps[i][3]
            js = followers.get((t, partners))
            if js is None:
                js = followers[t, partners] = tuple(
                    j for j in by_left.get(t, ()) if not maps[j][2] & partners)
            for j in js:
                if p := product(i, j):
                    table[(i, j)] = p
        return MappingProxyType(table)

    @cached_property
    def differentials(self) -> tuple[tuple[int, ...], ...]:
        """decompose(d e_i) for every index i; () where d e_i = 0."""
        return tuple(self.decompose(differential(el)) for el in self.elements)

    @cached_property
    def d_preimages(self) -> MappingProxyType:
        """r -> the ascending indices a with e_r in d e_a, for every such r."""
        table: dict[int, list[int]] = {}
        for a, d in enumerate(self.differentials):
            for r in d:
                table.setdefault(r, []).append(a)
        return MappingProxyType(table)

    @cached_property
    def factorizations(self) -> MappingProxyType:
        """r -> the pairs (a, b) with e_r in e_a e_b, in `products` order, for
        every such r."""
        table: dict[int, list[tuple[int, int]]] = {}
        for key, ab in self.products.items():
            for r in ab:
                table.setdefault(r, []).append(key)
        return MappingProxyType(table)


@lru_cache(maxsize=None)
def az_basis(pmc: PointedMatchedCircle, i: int = 0) -> AZBasis:
    """The AZBasis of A(Z, i) that modules share: one set of tables per circle."""
    return AZBasis(pmc, i)
