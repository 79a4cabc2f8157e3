"""Helpers that only the tests use: algebra elements built from generators,
an A(n, k) generator enumeration, the chord elements a0(rho) and a(rho)
built term by term with the idempotents I(s) and the pinch I(s) x I(t) (the
reference the coefficient parser is tested against), the orientation
reversal of gradings and refinement data, arc-slide row operations on
intersection matrices, iterated type D deltas, K0 monomials and basis
classes, a module's class summed generator by generator (the reference for
`class_of`, which sums the signs per key first), the exhaustive A-infinity
check over every idempotent chain (the reference for the candidate tuples
of `check_ainf`), the box tensor over every pair of generators (the
reference for the bucketed `box_tensor`), and the diagram classes
computed without the shared circle reduction (full determinants, and a
column reduction of the swapped matrix), a sampler of diagrams whose betas are isotropic in homology,
the chords and interval triples of the eight named torus elements, written
out by hand, the interval vector of a chord and the (rho, s) label of a
generator, the JSON writers of the formats that only the tests write
(A-infinity modules, patterns, CFK complexes and diagrams), and the type D
generator and CFK readers as they were before their per-record fast paths
(the references for `serialize._generators_from_json` and
`serialize.cfk_from_json`)."""

from __future__ import annotations

import itertools

from bdecat.cfk2cfd import Arrow, CFKComplex, CFKGenerator
from bdecat.diagram import (BorderedDiagram, DiagramPoint, HomologyKernel,
                            core_coordinates, intersection_matrix)
from bdecat.dmodules import (AInfModule, ChainComplex, ModuleGenerator, PmcMismatch,
                             TypeDStructure, _residual, is_bounded)
from bdecat.grading import GradingElement, RefinementData, ginv
from bdecat.grothendieck import ExteriorClass, LaurentHalf, class_from_terms
from bdecat.linalg import column_echelon, det_int
from bdecat.pmc import PointedMatchedCircle, ReebChord
from bdecat.satellite import PatternClass
from bdecat.serialize import (FixtureError, _generators_to_json, _int, _name,
                              dump_coefficient, parse_half, pmc_to_json)
from bdecat.strands import AlgebraElement, AZBasis, StrandsGenerator


TORUS_CHORDS = {
    "rho1": (ReebChord(1, 2),),
    "rho2": (ReebChord(2, 3),),
    "rho3": (ReebChord(3, 4),),
    "rho12": (ReebChord(1, 3),),
    "rho23": (ReebChord(2, 4),),
    "rho123": (ReebChord(1, 4),),
}

TORUS_INTERVALS = {
    "iota0": (0, 0, 0),
    "iota1": (0, 0, 0),
    "rho1": (1, 0, 0),
    "rho2": (0, 1, 0),
    "rho3": (0, 0, 1),
    "rho12": (1, 1, 0),
    "rho23": (0, 1, 1),
    "rho123": (1, 1, 1),
}


def zero(n: int) -> AlgebraElement:
    return AlgebraElement(n, frozenset())


def element(gens) -> AlgebraElement:
    gens = list(gens)
    return AlgebraElement(gens[0].n, frozenset(gens))


def idempotent(n: int, S) -> StrandsGenerator:
    S = tuple(sorted(S))
    return StrandsGenerator(n, S, S, S)


def plus_point(pmc: PointedMatchedCircle, pair: int) -> int:
    """The second endpoint of the pair along the circle orientation."""
    return pmc.points_of_pair(pair)[1]


def t2(e2: int, coeff: int = 1) -> LaurentHalf:
    """The monomial coeff * t^(e2/2), from the doubled exponent e2."""
    return LaurentHalf.from_dict({e2: coeff})


def basis_class(genus: int, s, poly: LaurentHalf | None = None) -> ExteriorClass:
    """poly * a_s, with poly 1 when none is given."""
    return ExteriorClass(genus, {frozenset(s): LaurentHalf.one() if poly is None else poly})


def class_by_generator(module) -> ExteriorClass:
    """[M] with one term (-1)^m t^a a_{idempotent} per generator."""
    return class_from_terms(module.pmc.genus, (
        (g.idempotent, g.a2 or 0, -1 if g.m % 2 else 1)
        for g in module.generators.values()))


def generators_of_ank(n: int, k: int):
    """Every generator of A(n, k): sources, targets, and upward bijections."""
    for S in itertools.combinations(range(1, n + 1), k):
        for images in itertools.permutations(range(1, n + 1), k):
            if all(t >= s for s, t in zip(S, images)):
                yield StrandsGenerator(n, S, tuple(sorted(images)), images)


class EndpointClash(ValueError):
    """Chord set has a repeated initial or final endpoint."""


def a0(n: int, rho, num_strands: int) -> AlgebraElement:
    """The summand of a0(rho) in A(n, num_strands).

    Sum over all ways of adding horizontal strands at positions disjoint
    from every chord endpoint.
    """
    rho = tuple(sorted(rho))
    starts = [c.start for c in rho]
    ends = [c.end for c in rho]
    if len(set(starts)) != len(starts) or len(set(ends)) != len(ends):
        raise EndpointClash(f"chords share endpoints: {rho}")
    blocked = set(starts) | set(ends)
    extra = num_strands - len(rho)
    if extra < 0:
        return zero(n)
    free = [p for p in range(1, n + 1) if p not in blocked]
    acc = set()
    for H in itertools.combinations(free, extra):
        strands = sorted([(c.start, c.end) for c in rho] + [(p, p) for p in H])
        S = tuple(s for s, _ in strands)
        phi = tuple(t for _, t in strands)
        acc.add(StrandsGenerator(n, S, tuple(sorted(phi)), phi))
    return AlgebraElement(n, frozenset(acc))


def _section_filter(pmc: PointedMatchedCircle, g: StrandsGenerator) -> bool:
    """True when both S and T occupy each matched pair at most once."""
    src = [pmc.pair_of(p) for p in g.S]
    dst = [pmc.pair_of(p) for p in g.T]
    return len(set(src)) == len(src) and len(set(dst)) == len(dst)


def a_of(pmc: PointedMatchedCircle, rho, i: int) -> AlgebraElement:
    """I a0(rho) I in the summand A(4k, k+i): the A(Z) element of a chord set."""
    raw = a0(pmc.num_points, rho, pmc.genus + i)
    return AlgebraElement(pmc.num_points,
                          frozenset(g for g in raw.terms if _section_filter(pmc, g)))


def pair_idempotent(pmc: PointedMatchedCircle, pairs) -> AlgebraElement:
    """I(s) = sum over sections of s of the elementary idempotent I(S)."""
    choices = [pmc.points_of_pair(p) for p in sorted(set(pairs))]
    return AlgebraElement(pmc.num_points, frozenset(
        idempotent(pmc.num_points, pick) for pick in itertools.product(*choices)))


def pinch(pmc: PointedMatchedCircle, s, x: AlgebraElement, t) -> AlgebraElement:
    """I(s) x I(t): keep terms whose pair supports are exactly s and t."""
    s, t = frozenset(s), frozenset(t)
    return AlgebraElement(x.n, frozenset(
        g for g in x.terms
        if frozenset(pmc.pair_of(p) for p in g.S) == s
        and frozenset(pmc.pair_of(p) for p in g.T) == t))


def pinch_coefficient(pmc: PointedMatchedCircle, el: AlgebraElement, left,
                      right=None) -> AlgebraElement | None:
    """I(left) el I(right) when nonzero, else None; with right None the
    terms of el at left must fix the right pair set."""
    if right is None:
        rights = {frozenset(pmc.pair_of(p) for p in g.T) for g in el.terms
                  if frozenset(pmc.pair_of(p) for p in g.S) == left}
        if len(rights) != 1:
            return None
        right = next(iter(rights))
    return pinch(pmc, left, el, right) or None


def reverse_grading(x: GradingElement) -> GradingElement:
    """R(j; alpha): the map induced by the orientation-reversing identity.

    Points relabel by p -> 4k+1-p, and every interval reverses orientation,
    so the multiplicity vector is reversed and negated; j is unchanged.
    """
    return GradingElement(x.j4, tuple(-a for a in reversed(x.alpha)))


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
            for i, z in dmap[y]:
                nxt ^= {(prefix + (i,), z)}
        current = nxt
    return current


def chains(basis: AZBasis, start: frozenset[int], length: int):
    """Every index tuple of `length` basis elements chaining from `start`,
    left(a_1) = start and right(a_i) = left(a_{i+1}), in ascending order."""
    if length == 0:
        yield ()
        return
    for j in basis.by_left.get(start, ()):
        for rest in chains(basis, basis.idempotents[j][1], length - 1):
            yield (j,) + rest


def ainf_failures(M: AInfModule) -> list[tuple[int, str, tuple[int, ...]]]:
    """(arity, x, inputs) of every failing A-infinity relation on every
    idempotent chain through arity max(2A - 1, A + 1), A the largest
    recorded arity, by arity, then generator order, then inputs.  Every
    other input tuple has a zero residual, since recorded ops, the unit,
    products and differentials all keep the idempotents."""
    arity = M.max_arity()
    return [(n, x, ids) for n in range(1, max(2 * arity - 1, arity + 1) + 1)
            for x, gx in M.generators.items()
            for ids in chains(M.basis, gx.idempotent, n - 1)
            if _residual(M, x, ids)]


def box_tensor_oracle(M: AInfModule, N: TypeDStructure, weight: int = 1) -> ChainComplex:
    """M box N over every pair of generators: each (x, y) with equal
    idempotents walks every delta chain from y, of up to the largest
    recorded arity minus one edges and of at least one edge, since the
    unit gives m_2(x, I) = x whatever M records, and asks `eval_m` for
    m_k(x, chain)."""
    if M.pmc != N.pmc:
        raise PmcMismatch("modules over different pointed matched circles")
    max_chain = max(M.max_arity(), 2) - 1

    gens = {}
    for xm in M.generators.values():
        for yn in N.generators.values():
            if xm.idempotent == yn.idempotent:
                a2 = None
                if xm.a2 is not None or yn.a2 is not None:
                    a2 = (xm.a2 or 0) + weight * (yn.a2 or 0)
                gens[(xm.name, yn.name)] = ModuleGenerator(
                    f"{xm.name}*{yn.name}", xm.idempotent, xm.m + yn.m, a2=a2)

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
                for b, z in dmap[yend]:
                    nxt ^= {(ids + (b,), z)}
            chains = nxt

    return ChainComplex(generators=gens, differential=frozenset(diff))


def determinant_class_oracle(d: BorderedDiagram) -> ExteriorClass:
    """The coefficient of a_s as the g x g determinant of M(H) with the s arc
    rows deleted, one full determinant per k-subset."""
    m = intersection_matrix(d)
    circles, arcs = m[:d.alpha_circles], m[d.alpha_circles:]
    return class_from_terms(d.k, (
        (s, 0, det_int(circles + [row for i, row in enumerate(arcs, 1) if i not in s]))
        for s in itertools.combinations(range(1, 2 * d.k + 1), d.k)))


def core_matrix(d: BorderedDiagram) -> list[list[int]]:
    """M'(H): the circle rows of M(H), then the arc rows in core
    coordinates, row i the sum of v times arc row j over the (j, v) of
    `core_coordinates(d.pmc)[i]`, as `homology_kernel` converts them."""
    m = intersection_matrix(d)
    arcs = m[d.alpha_circles:]
    return m[:d.alpha_circles] + [
        [sum(v * arcs[j][c] for j, v in entries) for c in range(d.genus)]
        for entries in core_coordinates(d.pmc)]


def homology_kernel_oracle(d: BorderedDiagram) -> HomologyKernel:
    """`homology_kernel` by its own column reduction of the core-coordinate
    matrix M'(H), not of M(H): pivots give b1 and the order, and the free
    columns of the arc rows give the kernel wedge."""
    g, k = d.genus, d.k
    reduced, pivots, _ = column_echelon(core_matrix(d), g - k)
    b1 = (g - k) - len(pivots)
    if b1 > 0:
        return HomologyKernel(b1, None, ExteriorClass(k, {}))
    free_cols = [c for c in range(g) if c not in pivots]
    order = 1
    for r, c in enumerate(pivots):
        order *= abs(reduced[r][c])
    a_block = [[reduced[g - k + r][c] for c in free_cols] for r in range(2 * k)]
    return HomologyKernel(0, order, class_from_terms(k, (
        (s, 0, det_int([a_block[i - 1] for i in s]))
        for s in itertools.combinations(range(1, 2 * k + 1), k))))


def _core_lagrangian(J) -> list[list[int]]:
    """k independent vectors with entries in {0, 1, -1} spanning an
    isotropic subspace of the core form J, chosen greedily."""
    n = len(J)
    chosen: list[list[int]] = []
    for vec in itertools.product((0, 1, -1), repeat=n):
        trial = chosen + [list(vec)]
        if any(sum(vec[i] * J[i][j] * w[j] for i in range(n) for j in range(n))
               for w in trial):
            continue
        if any(det_int([[row[c] for c in cols] for row in trial])
               for cols in itertools.combinations(range(n), len(trial))):
            chosen = trial
            if 2 * len(chosen) == n:
                return chosen
    raise ValueError(f"no isotropic basis found for {J}")


def isotropic_diagram(rng, pmc: PointedMatchedCircle, genus: int) -> BorderedDiagram:
    """A genus-g diagram over pmc whose betas are isotropic in H_1 of the
    closed surface, so that the kernel theorem holds for it.

    A beta class is (u, v, c): u and v its coordinates along the g - k
    alpha-circles and their duals, c its core coordinates; the form is
    sum(u v' - v u') + c^T J c' for the circle's J.  The betas start as the
    duals of the alpha-circles and an isotropic basis of J, take 1 to 4
    transvections x -> x + omega(x, t) t (which keep the form), and are
    shuffled.  Beta b then meets alpha-circle i in v_i signed points and
    arc j in (J^T c)_j, with a cancelling pair of points on a random curve
    for about half of the betas."""
    k, h = pmc.genus, genus - pmc.genus
    J = pmc.core_intersection

    def omega(x, y):
        (u, v, c), (u2, v2, c2) = x, y
        return (sum(a * d - b * e for a, b, d, e in zip(u, v, v2, u2))
                + sum(c[i] * J[i][j] * c2[j] for i in range(2 * k) for j in range(2 * k)))

    betas = [([0] * h, [int(i == j) for j in range(h)], [0] * (2 * k)) for i in range(h)]
    betas += [([0] * h, [0] * h, c) for c in _core_lagrangian(J)]
    for _ in range(rng.randint(1, 4)):
        t = tuple([rng.randint(-1, 1) for _ in range(n)] for n in (h, h, 2 * k))
        betas = [tuple([a + omega(x, t) * b for a, b in zip(part, tpart)]
                       for part, tpart in zip(x, t)) for x in betas]
    rng.shuffle(betas)
    points: list[DiagramPoint] = []

    def add(alpha, beta, n):
        points.extend(DiagramPoint(alpha, beta, 1 if n > 0 else -1, len(points))
                      for _ in range(abs(n)))

    for beta, (_, v, c) in enumerate(betas, 1):
        for i in range(h):
            add(("circle", i + 1), beta, v[i])
        for j in range(2 * k):
            add(("arc", j + 1), beta, sum(c[i] * J[i][j] for i in range(2 * k)))
        if rng.random() < 0.5:
            kind = rng.choice(("arc", "circle") if h else ("arc",))
            alpha = (kind, rng.randint(1, 2 * k if kind == "arc" else h))
            add(alpha, beta, 1)
            add(alpha, beta, -1)
    rng.shuffle(points)
    return BorderedDiagram(pmc, genus, h, points)


def chord_vector(n: int, chord: ReebChord) -> tuple[int, ...]:
    """The interval vector of a single chord: +1 on intervals start..end-1."""
    return tuple(1 if chord.start <= i < chord.end else 0 for i in range(1, n))


def chord_signature(pmc: PointedMatchedCircle, g: StrandsGenerator):
    """The (rho, s) basis label of a generator of A(Z)."""
    rho = tuple(sorted(ReebChord(s, t) for s, t in g.strands if s != t))
    s = frozenset(pmc.pair_of(p) for p in g.S)
    return rho, s


def ainf_to_json(M: AInfModule) -> dict:
    ops = []
    for x, ids, y in M.ops:
        ops.append({"x": x,
                    "algs": [dump_coefficient(M.basis, i) for i in ids],
                    "y": y})
    return {
        "pmc": pmc_to_json(M.pmc),
        "generators": _generators_to_json(M.generators),
        "ops": ops,
    }


def pattern_to_json(pc: PatternClass) -> dict:
    out = ainf_to_json(pc.cfa)
    out["winding"] = pc.winding
    return out


def cfk_to_json(cfk: CFKComplex) -> dict:
    return {
        "generators": [{"name": g.name, "maslov": g.maslov,
                        "alexander": g.alexander} for g in cfk.generators],
        "vertical": [{"src": a.src, "dst": a.dst, "length": a.length}
                     for a in cfk.vertical],
        "horizontal": [{"src": a.src, "dst": a.dst, "length": a.length}
                       for a in cfk.horizontal],
        "tau": cfk.tau,
    }


def diagram_to_json(d: BorderedDiagram) -> dict:
    return {
        "pmc": pmc_to_json(d.pmc),
        "genus": d.genus,
        "alpha_circles": d.alpha_circles,
        "points": [{"alpha": f"{p.alpha[0]}:{p.alpha[1]}", "beta": p.beta,
                    "sign": p.sign} for p in d.points],
    }


def generators_from_json_oracle(items):
    """The generator records of a type D or A-infinity file, read as the
    reader did before its fast path for one-entry idem lists: the idem list
    keyed by its tuple, the name through `_name`, and each record through
    the normalising constructor."""
    gens, frozen, halves = [], {}, {}
    for item in items:
        a = item["a"] if "a" in item else None
        if type(a) is str:
            a2 = halves.get(a)
            if a2 is None:
                a2 = halves[a] = parse_half(a)
        else:
            a2 = None if a is None else parse_half(a)
        name, idem = _name(item["name"]), item["idem"]
        key = tuple(idem) if type(idem) is list and set(map(type, idem)) <= {int} else None
        idempotent = frozen.get(key)
        if idempotent is None:
            idempotent = frozenset(_int(i, "idem entry") for i in idem)
            if len(idempotent) != len(idem):
                raise FixtureError(f"{name}: repeated idem entry in {idem}")
            if key is not None:
                frozen[key] = idempotent
        m = item["m"]
        gens.append(ModuleGenerator(name, idempotent, m if type(m) is int else _int(m, "m"),
                                    a2=a2))
    return gens


def cfk_from_json_oracle(data) -> CFKComplex:
    """The CFK reader as it was before it checked fields inline: every
    field through `_name` and `_int`, every record through its class."""
    gens = [CFKGenerator(_name(g["name"]), _int(g["maslov"], "maslov"),
                         _int(g["alexander"], "alexander"))
            for g in data["generators"]]
    def arrows(key):
        return [Arrow(a["src"], a["dst"], _int(a["length"], "length"))
                for a in data.get(key, [])]
    return CFKComplex(gens, arrows("vertical"), arrows("horizontal"),
                      _int(data.get("tau", 0), "tau"))
