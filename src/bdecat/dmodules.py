"""Type D structures, A-infinity modules, and the box tensor product.

Both module types are finitely generated over the idempotent ring of a
pointed matched circle.  Generators are `ModuleGenerator` records, plain
tuples (name, idempotent, m, a2): a k-element idempotent subset (the middle
summand), a Z/2 grading m, and an optional half-integer Alexander grading a,
stored as the integer a2 = 2a.  Coefficients are indices into the basis
`az_basis(pmc)` of A(Z, 0): a type D structure records delta as edges
(src, index, dst), a sum of basis elements being parallel edges over F2; an
A-infinity module records its nonzero operations
m_i(x, a_1, ..., a_{i-1}) = y with every a_j one index and none an
idempotent, and keeps them in one table by generator, x -> {inputs:
outputs}, beside the unit m_2(x, I) = x that strict unitality gives every
generator; `eval_m` and the box tensor both read that table.  The constructors
take coefficients in that form, check each generator's normal form and
idempotent and each index's idempotents in one in-order pass, and reject a
repeated delta edge or operation; the type D reader checks them as it reads
them, and builds with `TypeDStructure.built`.  The checkers read the basis
tables and `m_table` by index.

The box tensor product pairs generators with equal idempotent subsets (the
type D idempotent already records the unoccupied arcs, so equality is the
complementarity condition) and assembles the differential from the finite
sum of (m_k tensor id) o (id tensor delta_{k-1}), one term per entry of the
operation table, the unit included.  The type D generators are bucketed by
idempotent once, so each A-side generator meets only its own bucket, and
the complex is keyed by (x, y) name pairs: the "x*y" names of two pairs can
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .grading import m_table
from .pmc import PointedMatchedCircle
from .strands import az_basis


class StructureEquationFails(ValueError):
    pass


class GradingIncompatible(ValueError):
    pass


class AInfRelationFails(ValueError):
    pass


class PmcMismatch(ValueError):
    pass


class ModuleGenerator(NamedTuple):
    """Generator record (name, idempotent, m, a2), a plain tuple in normal
    form: the idempotent a frozenset, m 0 or 1, and the Alexander grading a
    stored as the integer a2 = 2a (None for none), as GradingElement stores
    4j.  Nothing normalises a record as it is made: the file reader, the CFD
    build and the box tensor make normal records with `tuple.__new__`, and
    the checked `TypeDStructure(...)` and `AInfModule(...)` reject others."""

    name: str
    idempotent: frozenset[int]
    m: int
    a2: int | None = None


def _normal(g: ModuleGenerator) -> ModuleGenerator:
    """g, when it is in normal form; the checked constructors pass each
    record through this, so a set idempotent or an m of 2 raises here, not
    as a wrong sign in `class_of`."""
    if type(g.idempotent) is not frozenset:
        raise ValueError(f"{g.name}: idempotent must be a frozenset")
    if type(g.m) is not int or g.m not in (0, 1):
        raise ValueError(f"{g.name}: m must be 0 or 1")
    return g


def _check_generators(pmc, generators):
    """name -> generator, checked in order: the first repeated name, or
    idempotent that is not a k-element subset of [2k], raises, a repeated
    name before its idempotent.  This is where every idempotent a module's
    class is summed over gets checked against [2k]."""
    k = pmc.genus
    pairs = frozenset(range(1, 2 * k + 1))
    table = {}
    for g in generators:
        name, s = g.name, g.idempotent
        if name in table:
            raise ValueError(f"duplicate generator name {name}")
        if len(s) != k:
            raise ValueError(f"{name}: idempotent must have {k} elements")
        if not s <= pairs:
            raise ValueError(f"{name}: idempotent outside [2k]")
        table[name] = g
    return table


def _check_repeated_edges(delta) -> None:
    """Reject the first delta edge (src, index, dst) listed twice: two
    copies would cancel over F2."""
    if len(set(delta)) != len(delta):
        seen = set()
        for src, i, dst in delta:
            if (src, i, dst) in seen:
                raise ValueError(f"repeated delta edge {src}->{dst} (basis index {i})")
            seen.add((src, i, dst))


class TypeDStructure:
    def __init__(self, pmc: PointedMatchedCircle, generators, delta):
        """delta entries are (src_name, index, dst_name), the index one
        element of `az_basis(pmc)`; no edge may appear twice, as two copies
        would cancel over F2.  The edges are checked in order, every
        coefficient against its endpoints' idempotents before any repeat,
        as the type D reader reports them.  Construction is a build step and
        a check step (the generators, each in normal form, then the edges);
        `built` runs the build step alone."""
        self._build(pmc, _check_generators(pmc, map(_normal, generators)),
                    list(map(tuple, delta)))
        self._check_delta()

    @classmethod
    def built(cls, pmc: PointedMatchedCircle, generators: dict, delta: list):
        """The build step alone, for a caller whose construction guarantees
        what the checks find, normal-form records and tuple edges:
        `cfk2cfd.build_cfd`, and `serialize.type_d_from_json`, which checks
        each generator and edge as it reads them."""
        N = cls.__new__(cls)
        N._build(pmc, generators, delta)
        return N

    def _build(self, pmc, generators, delta):
        self.pmc = pmc
        # fixed once built: grothendieck.class_of keeps their class here
        self.generators = generators
        self._k0_class = None
        self.basis = az_basis(pmc)
        self.delta = delta

    def _check_delta(self):
        idempotents, generators = self.basis.idempotents, self.generators
        for src, i, dst in self.delta:
            pair = (generators[src].idempotent, generators[dst].idempotent)
            if not (0 <= i < len(idempotents) and idempotents[i] == pair):
                raise ValueError(
                    f"coefficient on {src}->{dst} not compatible with idempotents")
        _check_repeated_edges(self.delta)

    def delta_map(self) -> dict[str, list[tuple[int, str]]]:
        out: dict[str, list] = {name: [] for name in self.generators}
        for src, i, dst in self.delta:
            out[src].append((i, dst))
        return out


class AInfModule:
    def __init__(self, pmc: PointedMatchedCircle, generators, ops):
        """ops entries are (x_name, [index, ...], y_name) for m_i, each index
        one element of `az_basis(pmc)` and none an idempotent; no op may
        appear twice, as two copies would cancel over F2.  `ops` keeps them
        in order; `operations`, x -> {inputs: F2 set of outputs}, holds them
        and, for every x, the unit m_2(x, I(s)) = x, s the idempotent of x:
        the one place strict unitality is written.  Each generator must be
        in normal form."""
        self.pmc = pmc
        # fixed once built: grothendieck.class_of keeps their class here
        self.generators = _check_generators(pmc, map(_normal, generators))
        self._k0_class = None
        self.basis = basis = az_basis(pmc)
        self.operations = {x: {(basis.by_label[(), g.idempotent],): frozenset((x,))}
                           for x, g in self.generators.items()}
        self.ops = []
        for x, ids, y in ops:
            gx, gy = self.generators[x], self.generators[y]
            ids = tuple(ids)
            left = gx.idempotent
            for i in ids:
                if not (0 <= i < len(basis) and basis.idempotents[i][0] == left):
                    raise ValueError(f"op ({x}; ...) breaks idempotent chain")
                if i in basis.idempotent_indices:
                    raise ValueError("idempotent inputs are implicit, not stored")
                left = basis.idempotents[i][1]
            if left != gy.idempotent:
                raise ValueError(f"op ({x}; ...; {y}) output idempotent mismatch")
            outputs = self.operations[x].get(ids, frozenset())
            if y in outputs:
                raise ValueError(
                    f"repeated op m{len(ids) + 1}: {x} -> {y} (basis indices {ids})")
            self.operations[x][ids] = outputs | {y}
            self.ops.append((x, ids, y))

    def eval_m(self, x: str, input_indices: tuple[int, ...]) -> frozenset[str]:
        """m_{1+len(inputs)}(x, ...) as an F2 set of generator names: the
        entry of `operations`, so m_2(x, I(o(x))) = x, and every other
        operation with an idempotent input vanishes."""
        return self.operations[x].get(input_indices, frozenset())


@dataclass
class ChainComplex:
    """F2 chain complex with Z/2 (and optional Alexander) graded generators,
    keyed by any hashable value; messages name generators by their records'
    names."""

    generators: dict = field(default_factory=dict)
    differential: frozenset = frozenset()  # frozenset of (src key, dst key)

    def __post_init__(self):
        gens = self.generators
        adj: dict = {}
        for src, dst in self.differential:
            gs, gd = gens[src], gens[dst]
            if (gs.m - gd.m) % 2 != 1:
                raise GradingIncompatible(
                    f"differential {gs.name}->{gd.name} does not lower m by 1")
            adj.setdefault(src, set()).add(dst)
        sq: set[tuple] = set()
        for src, dst in self.differential:
            for dst2 in adj.get(dst, ()):
                key = (src, dst2)
                sq ^= {key}
        if sq:
            names = sorted((gens[a].name, gens[b].name) for a, b in sq)
            raise ValueError(f"differential does not square to zero: {names}")


def check_type_d(N: TypeDStructure) -> None:
    """Verify the structure equation, summed from the basis tables into one
    F2 set of (src, dst, index), and the coefficient grading relation."""
    basis = N.basis
    products, differentials = basis.products, basis.differentials
    dmap = N.delta_map()
    residual: set[tuple[str, str, int]] = set()
    # Most indices have no differential and most pairs no product; skipping
    # those updates took ~5% off the staircase op.
    for src, i, dst in N.delta:
        if differentials[i]:
            residual.symmetric_difference_update(
                (src, dst, r) for r in differentials[i])
        for j, dst2 in dmap[dst]:
            if (i, j) in products:
                residual.symmetric_difference_update(
                    (src, dst2, r) for r in products[i, j])
    if residual:
        src, dst, r = min(residual)
        raise StructureEquationFails(
            f"residual with term {basis.elements[r]} from {src} to {dst}")

    m = m_table(N.pmc)
    for src, i, dst in N.delta:
        ms, md, mc = N.generators[src].m, N.generators[dst].m, m[i]
        if (ms - mc - md - 1) % 2 != 0:
            raise GradingIncompatible(
                f"{src}->{dst}: m({src})={ms} but m(coeff)+m({dst})+1="
                f"{(mc + md + 1) % 2}")


def is_bounded(N: TypeDStructure) -> bool:
    """True iff the coefficient digraph is acyclic: Kahn's algorithm removes
    generators with no incoming edge until none is left or a cycle is."""
    adj: dict[str, list[str]] = {name: [] for name in N.generators}
    indegree = dict.fromkeys(adj, 0)
    for src, _, dst in N.delta:
        adj[src].append(dst)
        indegree[dst] += 1
    ready = [v for v, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        removed += 1
        for w in adj[ready.pop()]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return removed == len(adj)


def _candidates(M: AInfModule) -> dict[str, set[tuple[int, ...]]]:
    """x -> the input tuples T on which the relation at x can fail.

    With no unit in T, every term of the relation is `eval_m` on a tuple
    without a unit (d and products never make one), which is nonzero only
    on a recorded op.  So some term reads a recorded op, and T is
    (i) ids1 + ids2 for recorded ops (x, ids1, y) and (y, ids2, .),
    (ii) a recorded op's inputs with one entry r replaced by an a with r in
    d(a), or (iii) with one entry r replaced by a pair (a, b) of
    non-idempotents with r in ab.  On a T that holds a unit the terms cancel
    in pairs: each product with I, and the composite through m_2(., I), give
    back T without that I.
    The inverse tables are read only for an op with inputs, so a module with
    none builds no product table.
    """
    basis = M.basis
    after: dict[str, list[tuple[int, ...]]] = {x: [] for x in M.generators}
    for x, ids, _ in M.ops:
        after[x].append(ids)
    out: dict[str, set[tuple[int, ...]]] = {x: set() for x in M.generators}
    for x, ids, y in M.ops:
        found = out[x]
        found.update(ids + rest for rest in after[y])
        for pos, r in enumerate(ids):
            head, tail = ids[:pos], ids[pos + 1:]
            found.update(head + (a,) + tail for a in basis.d_preimages.get(r, ()))
            found.update(head + ab + tail for ab in basis.factorizations.get(r, ())
                         if basis.idempotent_indices.isdisjoint(ab))
    return out


def _residual(M: AInfModule, x: str, ids: tuple[int, ...]) -> set[str]:
    """The F2 sum of the terms of the A-infinity relation at x on inputs ids."""
    products, differentials = M.basis.products, M.basis.differentials
    n = len(ids) + 1
    total: set[str] = set()
    # m_i(m_j(x, a_1..a_{j-1}), a_j..a_{n-1})
    for j in range(1, n + 1):
        for y in M.eval_m(x, ids[:j - 1]):
            total ^= M.eval_m(y, ids[j - 1:])
    # differentials of single inputs
    for pos in range(n - 1):
        for rep in differentials[ids[pos]]:
            total ^= M.eval_m(x, ids[:pos] + (rep,) + ids[pos + 1:])
    # products of adjacent inputs
    for pos in range(n - 2):
        for rep in products.get((ids[pos], ids[pos + 1]), ()):
            total ^= M.eval_m(x, ids[:pos] + (rep,) + ids[pos + 2:])
    return total


def _failures(M: AInfModule):
    """(x, inputs, residual) for each candidate whose relation fails, by
    arity, then generator order, then inputs."""
    order = {x: i for i, x in enumerate(M.generators)}
    for _, _, ids, x in sorted((len(ids), order[x], ids, x)
                               for x, found in _candidates(M).items() for ids in found):
        if total := _residual(M, x, ids):
            yield x, ids, total


def check_ainf(M: AInfModule) -> None:
    """Verify every A-infinity relation; raise AInfRelationFails at the first
    that fails, by arity, then generator, then inputs.  Then verify the
    grading of each op m_{n+1}(x, a_1..a_n) = y, m(y) = m(x) + sum m(a_i) +
    n - 1 mod 2, so that every box tensor differential lowers m by 1.

    Only the `_candidates` tuples can leave a residual.  They reach arity
    max(2A - 1, A + 1), A the largest recorded arity: a composite of two
    recorded ops has arity at most 2A - 1, and a factorization adds one.
    """
    for x, ids, total in _failures(M):
        raise AInfRelationFails(
            f"arity {len(ids) + 1} at x={x}, inputs {ids}: residual {sorted(total)}")
    m = m_table(M.pmc)
    for x, ids, y in M.ops:
        expected = (M.generators[x].m + sum(m[i] for i in ids) + len(ids) - 1) % 2
        if M.generators[y].m != expected:
            raise GradingIncompatible(
                f"op m{len(ids) + 1}: {x} -> {y} (basis indices {ids}): m({y})="
                f"{M.generators[y].m} but m({x})+m(inputs)+{(len(ids) - 1) % 2}={expected}")


def box_tensor(M: AInfModule, N: TypeDStructure, weight: int = 1) -> ChainComplex:
    """M box N with m additive and a(x ox y) = a(x) + weight * a(y), keyed
    by the (x, y) name pairs and named "x*y".

    N's generators are bucketed by idempotent once, and each x meets only
    the y of its bucket.  The differential is read from the operations
    out: each m_k(x, b_1..b_{k-1}) in `M.operations`, the unit
    m_2(x, I) = x among them, follows, from each y, only the delta chains
    labelled b_1..b_{k-1} (an F2 set of ends, as paths count mod 2), so
    m_1(x, ()) is one table read per x.  One pass over N's delta indexes
    the edges by label, keeping only the labels some operation reads; an
    operation with an input that labels no edge of N is skipped before any
    y is tried.  The differential sum stops at the largest arity, so a
    finite operation list bounds it even when N has delta cycles.
    """
    if M.pmc != N.pmc:
        raise PmcMismatch("modules over different pointed matched circles")
    bucket: dict[frozenset[int], list[ModuleGenerator]] = {}
    for y in N.generators.values():
        bucket.setdefault(y.idempotent, []).append(y)

    new = tuple.__new__
    gens = {}
    for xn, s, xm, xa2 in M.generators.values():
        for yn, _, ym, ya2 in bucket.get(s, ()):
            a2 = None if xa2 is None and ya2 is None else (xa2 or 0) + weight * (ya2 or 0)
            gens[xn, yn] = new(ModuleGenerator, (f"{xn}*{yn}", s, (xm + ym) & 1, a2))

    read = {b for table in M.operations.values() for ids in table for b in ids}
    edges: dict[int, dict[str, list[str]]] = {}  # label -> src -> its dsts
    for src, i, dst in N.delta:
        if i in read:
            edges.setdefault(i, {}).setdefault(src, []).append(dst)
    diff: set[tuple] = set()
    for xn, s, _, _ in M.generators.values():
        for ids, outs in M.operations[xn].items():
            steps = [edges.get(b) for b in ids]
            if None in steps:
                continue
            for y in bucket.get(s, ()):
                ends = {y.name}
                for step in steps:
                    nxt: set[str] = set()
                    for e in ends:
                        nxt.symmetric_difference_update(step.get(e, ()))
                    ends = nxt
                for z in ends:
                    for out in outs:
                        if (out, z) in gens:
                            diff ^= {((xn, y.name), (out, z))}

    return ChainComplex(generators=gens, differential=frozenset(diff))
