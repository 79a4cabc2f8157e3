"""Type D structures, A-infinity modules, and the box tensor product.

Both module types are finitely generated over the idempotent ring of a
pointed matched circle.  Generators carry a k-element idempotent subset (the
middle summand), a Z/2 grading m, and an optional half-integer Alexander
grading a, stored as the integer a2 = 2a.  A type D structure records delta
as a list of coefficient triples (src, algebra element, dst); an A-infinity
module records the finite list of nonzero operations
m_i(x, a_1, ..., a_{i-1}) = y with every a_j a basis element of A(Z, 0).

The box tensor product pairs generators with equal idempotent subsets (the
type D idempotent already records the unoccupied arcs, so equality is the
complementarity condition) and assembles the differential from the finite
sum of (m_k tensor id) o (id tensor delta_{k-1}).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import strands
from .grading import m_of
from .pmc import PointedMatchedCircle
from .strands import AlgebraElement, AZBasis, multiply, differential, pinch


class StructureEquationFails(ValueError):
    pass


class GradingIncompatible(ValueError):
    pass


class AInfRelationFails(ValueError):
    pass


class PmcMismatch(ValueError):
    pass


class Unbounded(ValueError):
    pass


@dataclass(frozen=True, init=False)
class ModuleGenerator:
    """Generator (name, idempotent, m, a) stored with a2 = 2a, as GradingElement
    stores 4j; `a` is the half-integer view at the JSON and test boundary."""

    name: str
    idempotent: frozenset[int]
    m: int
    a2: int | None

    def __init__(self, name, idempotent, m, a=None):
        a2 = None if a is None else 2 * a
        if a2 is not None and getattr(a2, "denominator", None) != 1:
            raise ValueError(f"{name}: Alexander grading {a} is not a half-integer")
        self._set(name, idempotent, m, a2)

    @classmethod
    def from_a2(cls, name, idempotent, m, a2: int | None) -> "ModuleGenerator":
        g = object.__new__(cls)
        g._set(name, idempotent, m, a2)
        return g

    def _set(self, name, idempotent, m, a2) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "idempotent", frozenset(idempotent))
        object.__setattr__(self, "m", m % 2)
        object.__setattr__(self, "a2", None if a2 is None else int(a2))

    @property
    def a(self) -> Fraction | None:
        return None if self.a2 is None else Fraction(self.a2, 2)


def _check_generators(pmc, generators):
    k = pmc.genus
    table = {}
    for g in generators:
        if len(g.idempotent) != k:
            raise ValueError(f"{g.name}: idempotent must have {k} elements")
        if not all(1 <= i <= 2 * k for i in g.idempotent):
            raise ValueError(f"{g.name}: idempotent outside [2k]")
        if g.name in table:
            raise ValueError(f"duplicate generator name {g.name}")
        table[g.name] = g
    return table


class TypeDStructure:
    def __init__(self, pmc: PointedMatchedCircle, generators, delta):
        """delta entries are (src_name, AlgebraElement, dst_name)."""
        self.pmc = pmc
        self.generators = _check_generators(pmc, generators)
        self.delta = []
        for src, coeff, dst in delta:
            gs, gd = self.generators[src], self.generators[dst]
            if not coeff:
                raise ValueError(f"zero coefficient on {src}->{dst}")
            pinched = pinch(pmc, gs.idempotent, coeff, gd.idempotent)
            if pinched != coeff:
                raise ValueError(
                    f"coefficient on {src}->{dst} not compatible with idempotents")
            self.delta.append((src, coeff, dst))

    def delta_map(self) -> dict[str, list[tuple[AlgebraElement, str]]]:
        out: dict[str, list] = {name: [] for name in self.generators}
        for src, coeff, dst in self.delta:
            out[src].append((coeff, dst))
        return out


class AInfModule:
    def __init__(self, pmc: PointedMatchedCircle, generators, ops):
        """ops entries are (x_name, [AlgebraElement, ...], y_name) for m_i."""
        self.pmc = pmc
        self.generators = _check_generators(pmc, generators)
        self.basis = AZBasis(pmc, 0)
        self.ops = []
        for x, algs, y in ops:
            gx, gy = self.generators[x], self.generators[y]
            ids = []
            left = gx.idempotent
            for a in algs:
                s, t = strands.left_right_pairs(pmc, a)
                if s != left:
                    raise ValueError(f"op ({x}; ...) breaks idempotent chain")
                decomp = self.basis.decompose(a)
                if len(decomp) != 1:
                    raise ValueError("operation inputs must be single basis elements")
                if all(g.is_idempotent() for g in a.terms):
                    raise ValueError("idempotent inputs are implicit, not stored")
                ids.append(decomp[0])
                left = t
            if left != gy.idempotent:
                raise ValueError(f"op ({x}; ...; {y}) output idempotent mismatch")
            self.ops.append((x, tuple(ids), y))
        self._table: dict[tuple[str, tuple[int, ...]], set[str]] = {}
        for x, ids, y in self.ops:
            key = (x, ids)
            self._table.setdefault(key, set())
            self._table[key] ^= {y}

    def max_arity(self) -> int:
        return max((len(ids) + 1 for _, ids, _ in self.ops), default=1)

    def _is_idempotent_index(self, idx: int) -> frozenset[int] | None:
        el = self.basis.elements[idx]
        if all(g.is_idempotent() for g in el.terms):
            s, _ = strands.left_right_pairs(self.pmc, el)
            return s
        return None

    def eval_m(self, x: str, input_indices: tuple[int, ...]) -> set[str]:
        """m_{1+len(inputs)}(x, ...) as an F2 set of generator names.

        Unitality is built in: m_2(x, I(o(x))) = x, and higher operations
        with an idempotent input vanish.
        """
        idem_positions = [self._is_idempotent_index(i) for i in input_indices]
        if any(s is not None for s in idem_positions):
            if len(input_indices) == 1:
                s = idem_positions[0]
                return {x} if s == self.generators[x].idempotent else set()
            return set()
        return set(self._table.get((x, input_indices), set()))


@dataclass
class ChainComplex:
    """F2 chain complex with Z/2 (and optional Alexander) graded generators."""

    generators: dict = field(default_factory=dict)
    differential: frozenset = frozenset()  # frozenset of (src, dst)

    def __post_init__(self):
        for src, dst in self.differential:
            gs, gd = self.generators[src], self.generators[dst]
            if (gs.m - gd.m) % 2 != 1:
                raise GradingIncompatible(
                    f"differential {src}->{dst} does not lower m by 1")
        sq: set[tuple[str, str]] = set()
        adj: dict[str, set[str]] = {}
        for src, dst in self.differential:
            adj.setdefault(src, set()).add(dst)
        for src, dst in self.differential:
            for dst2 in adj.get(dst, ()):
                key = (src, dst2)
                sq ^= {key}
        if sq:
            raise ValueError(f"differential does not square to zero: {sorted(sq)}")


def check_type_d(N: TypeDStructure) -> None:
    """Verify the structure equation and the coefficient grading relation."""
    dmap = N.delta_map()
    residual: dict[tuple[str, str], AlgebraElement] = {}

    def add(key, elem):
        cur = residual.get(key)
        residual[key] = elem if cur is None else cur + elem

    for src, coeff, dst in N.delta:
        d = differential(coeff)
        if d:
            add((src, dst), d)
        for coeff2, dst2 in dmap[dst]:
            prod = multiply(coeff, coeff2)
            if prod:
                add((src, dst2), prod)
    for (src, dst), elem in residual.items():
        if elem:
            raise StructureEquationFails(
                f"residual {elem} from {src} to {dst}")

    for src, coeff, dst in N.delta:
        mc = m_of(coeff, N.pmc)
        ms, md = N.generators[src].m, N.generators[dst].m
        if (ms - mc - md - 1) % 2 != 0:
            raise GradingIncompatible(
                f"{src}->{dst}: m({src})={ms} but m(coeff)+m({dst})+1="
                f"{(mc + md + 1) % 2}")


def is_bounded(N: TypeDStructure) -> bool:
    """True iff the coefficient digraph is acyclic."""
    adj: dict[str, set[str]] = {name: set() for name in N.generators}
    for src, _, dst in N.delta:
        adj[src].add(dst)
    state: dict[str, int] = {}

    def visit(v) -> bool:
        state[v] = 1
        for w in adj[v]:
            s = state.get(w, 0)
            if s == 1 or (s == 0 and not visit(w)):
                return False
        state[v] = 2
        return True

    return all(visit(v) for v in N.generators if state.get(v, 0) == 0)


def delta_k(N: TypeDStructure, x: str, k: int) -> set[tuple]:
    """The k-fold iterate of delta as an F2 set of (g_1, ..., g_k, name) keys.

    Keys spell algebra factors as strands generators, so cancellation is a
    symmetric difference.  delta_0 is the identity.
    """
    if k > len(N.generators) and not is_bounded(N):
        raise Unbounded(
            f"iterating delta {k} times on an unbounded structure")
    current: set[tuple] = {((), x)}
    dmap = N.delta_map()
    for _ in range(k):
        nxt: set[tuple] = set()
        for prefix, y in current:
            for coeff, z in dmap[y]:
                for g in coeff.terms:
                    nxt ^= {(prefix + (g,), z)}
        current = nxt
    return current


CANDIDATE_BOUND = 100_000


def _chain_count(basis: AZBasis, start: frozenset[int], length: int) -> int:
    """How many index tuples of `length` basis elements chain from `start`:
    left(a_1) = start and right(a_i) = left(a_{i+1}), counted bucket by
    bucket without listing the tuples."""
    ways = {start: 1}
    for _ in range(length):
        nxt: dict[frozenset[int], int] = {}
        for s, w in ways.items():
            for j in basis.by_left.get(s, ()):
                t = basis.idempotents[j][1]
                nxt[t] = nxt.get(t, 0) + w
        ways = nxt
    return sum(ways.values())


def _chains(basis: AZBasis, start: frozenset[int], length: int):
    """Every index tuple of `length` basis elements chaining from `start`,
    in ascending order."""
    if length == 0:
        yield ()
        return
    for j in basis.by_left.get(start, ()):
        for rest in _chains(basis, basis.idempotents[j][1], length - 1):
            yield (j,) + rest


def _is_chain(basis: AZBasis, start: frozenset[int], ids: tuple[int, ...]) -> bool:
    for j in ids:
        s, t = basis.idempotents[j]
        if s != start:
            return False
        start = t
    return True


def _candidate_tuples(M: AInfModule, x: str, length: int):
    """Input tuples of `length` on which the relations at x can fail.

    Only tuples chaining from the idempotent of x can: recorded ops are
    chains, the unit needs a matching idempotent, and products and
    differentials keep idempotents, so every other residual is empty.  All
    chains are listed when there are at most CANDIDATE_BOUND of them;
    otherwise only the chained windows of recorded ops and of pairs of
    recorded ops joined end to end.
    """
    basis, start = M.basis, M.generators[x].idempotent
    if _chain_count(basis, start, length) <= CANDIDATE_BOUND:
        yield from _chains(basis, start, length)
        return
    seen = set()
    recorded = [ids for _, ids, _ in M.ops]
    for ids in recorded:
        for i in range(len(ids) - length + 1):
            seen.add(ids[i:i + length])
    for a, b in itertools.product(recorded, repeat=2):
        joint = a + b
        for i in range(max(0, len(joint) - length + 1)):
            seen.add(joint[i:i + length])
    yield from sorted(ids for ids in seen if _is_chain(basis, start, ids))


def check_ainf(M: AInfModule) -> list[tuple[int, int, int]]:
    """Verify the A-infinity relations through arity max(2A - 1, A + 1).

    A is the largest recorded arity: a composite m_i(m_j) with i, j <= A
    reaches arity 2A - 1, and A + 1 covers the unit and product terms.
    Returns (arity, tuples checked, chained tuples) for every arity whose
    chains exceeded CANDIDATE_BOUND at some generator and so were checked
    only on the recorded-op candidates; [] means every relation was checked.
    """
    products, differentials = M.basis.products, M.basis.differentials
    arity = M.max_arity()
    partial = []
    for n in range(1, max(2 * arity - 1, arity + 1) + 1):
        checked = chained = 0
        for x, gx in M.generators.items():
            chained += _chain_count(M.basis, gx.idempotent, n - 1)
            for ids in _candidate_tuples(M, x, n - 1):
                checked += 1
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
                if total:
                    raise AInfRelationFails(
                        f"arity {n} at x={x}, inputs {ids}: residual {sorted(total)}")
        if checked < chained:
            partial.append((n, checked, chained))
    return partial


def box_tensor(M: AInfModule, N: TypeDStructure, weight: int = 1) -> ChainComplex:
    """M box N with m additive and a(x ox y) = a(x) + weight * a(y).

    A finite operation list always bounds the A-side, so the differential
    sum stops at the maximal recorded arity even when N has delta cycles.
    """
    if M.pmc != N.pmc:
        raise PmcMismatch("modules over different pointed matched circles")
    max_chain = M.max_arity() - 1

    gens = {}
    for xm in M.generators.values():
        for yn in N.generators.values():
            if xm.idempotent == yn.idempotent:
                a2 = None
                if xm.a2 is not None or yn.a2 is not None:
                    a2 = (xm.a2 or 0) + weight * (yn.a2 or 0)
                gens[(xm.name, yn.name)] = ModuleGenerator.from_a2(
                    f"{xm.name}*{yn.name}", xm.idempotent, xm.m + yn.m, a2)

    dmap = N.delta_map()
    diff: set[tuple] = set()
    for (xn, yn) in gens:
        # chains y -> y1 -> ... of length k-1 in N, consumed by m_k on the A side
        chains: set[tuple] = {((), yn)}
        for length in range(0, max_chain + 1):
            for ids, yend in chains:
                for out in M.eval_m(xn, ids):
                    if (out, yend) in gens:
                        diff ^= {((xn, yn), (out, yend))}
            if length == max_chain:
                break
            nxt: set[tuple] = set()
            for ids, yend in chains:
                for coeff, z in dmap[yend]:
                    for b in M.basis.decompose(coeff):
                        nxt ^= {(ids + (b,), z)}
            chains = nxt

    return ChainComplex(
        generators={gens[k].name: gens[k] for k in gens},
        differential=frozenset((gens[a].name, gens[b].name) for a, b in diff))
