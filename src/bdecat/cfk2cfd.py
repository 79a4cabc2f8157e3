"""Type D structures of 0-framed knot complements from reduced CFK^- data.

Input is a horizontally and vertically simplified basis: generators with
integer (maslov, alexander) bigradings, vertical and horizontal arrows with
at most one of each touching any generator, a unique generator xi_v with no
vertical arrow and a unique xi_h with no horizontal arrow, and the integer
tau.  Arrows point in the direction of the differential: a vertical arrow
x -> y of length l has A(y) = A(x) - l and M(y) = M(x) - 1, a horizontal
arrow has A(y) = A(x) + l and M(y) = M(x) - 1 + 2l.

Each arrow becomes a chain of coefficient maps through l new iota1
generators, and one unstable chain joins xi_v to xi_h with shape dictated by
the sign of tau:

    vertical   x -> y:  x --rho1--> v1 <--rho23-- ... <--rho23-- vl <--rho123-- y
    horizontal x -> y:  x --rho3--> h1 --rho23--> ... --rho23--> hl --rho2--> y
    tau = 0:            xi_v --rho12--> xi_h
    tau > 0:            xi_v --rho1--> u1 <--rho23-- ... <--rho23-- u_{2tau} <--rho3-- xi_h
    tau < 0:            xi_v --rho123--> u1 --rho23--> ... --rho23--> u_{2|tau|} --rho2--> xi_h

Gradings: iota0 generators carry a = alexander and m = maslov mod 2, and
each chain generator takes its (m, a) from the edge that first reaches it
by the torus weight rule: across (x, rho_I, y), m drops by m(rho_I) + 1 and
2a by alexander_weight2_cfd(rho_I, 0).  The last edge of each chain obeys
the rule too, by the bigradings checked when a CFKComplex is built: each
arrow's Alexander change is its length and its Maslov change is odd, and
a(xi_h) = a(xi_v) - 2 tau.  Then xi_v and xi_h have the same Maslov parity,
as the unstable chain needs: the vertical arrows pair the generators other
than xi_v into opposite parities, and the horizontal arrows those other
than xi_h, so each of the two is even exactly when the Euler characteristic
at t = 1 is +1.  ("Vertical" and "horizontal" refer to the arrow's
direction on the (U, A) plot of the input complex.)

The structure equation holds for every CFKComplex too.  The torus algebra
has no differential, and every product along a path x -> y -> z is zero.
Through an iota0 generator y, only rho2*rho3 and rho12*rho3 are nonzero,
and either needs y to be the target of a horizontal arrow or the unstable
chain and the source of another; each generator touches at most one
horizontal arrow and xi_h touches none.  Through an iota1 generator, only
rho1*rho2 and rho1*rho23 are nonzero, and rho1 enters only the first
generator of an inward chain, which has no outgoing edge.  So build_cfd
checks nothing, and builds with `TypeDStructure.built`, as the type D reader
does once it has checked each record and edge: its names are unique (a
chain's prefix gains "'" until they are) and each coefficient fits its ends
by the table above.  The tests run every check on many complexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .dmodules import ModuleGenerator, TypeDStructure
from .grading import m_table
from .grothendieck import LaurentHalf, class_of, normalize_symmetric
from .torus import alexander_weight2_cfd, torus_algebra


class CFKInvariantViolation(ValueError):
    pass


class Mismatch(ValueError):
    """a1 component differs from the Euler characteristic of the input."""


class A2NonZero(ValueError):
    pass


# The records are tuples, built unchecked; CFKComplex checks them.
class CFKGenerator(NamedTuple):
    name: str
    maslov: int
    alexander: int


class Arrow(NamedTuple):
    src: str
    dst: str
    length: int


@dataclass
class CFKComplex:
    generators: list[CFKGenerator]
    vertical: list[Arrow] = field(default_factory=list)
    horizontal: list[Arrow] = field(default_factory=list)
    tau: int = 0

    def __post_init__(self):
        self.by_name = {g.name: g for g in self.generators}
        if len(self.by_name) != len(self.generators):
            raise CFKInvariantViolation("duplicate generator names")
        self.xi_v = self._distinguished(self.vertical, "vertical")
        self.xi_h = self._distinguished(self.horizontal, "horizontal")
        at_one = sum((-1) ** (g.maslov % 2) for g in self.generators)
        if at_one not in (1, -1):
            raise CFKInvariantViolation(
                f"Euler characteristic at t=1 is {at_one}, not +-1")
        for kind, arrows, sign, change in (("vertical", self.vertical, -1, "drop"),
                                           ("horizontal", self.horizontal, 1, "rise")):
            for ar in arrows:
                x, y = self.by_name[ar.src], self.by_name[ar.dst]
                if y.alexander != x.alexander + sign * ar.length:
                    raise CFKInvariantViolation(
                        f"{kind} {ar.src}->{ar.dst}: alexander {change} != length")
                if (y.maslov - x.maslov) % 2 != 1:
                    raise CFKInvariantViolation(f"{kind} {ar.src}->{ar.dst}: maslov parity")
        xv, xh = self.by_name[self.xi_v], self.by_name[self.xi_h]
        if xh.alexander != xv.alexander - 2 * self.tau:
            raise CFKInvariantViolation("unstable chain: a(xi_h) != a(xi_v) - 2 tau")

    def _distinguished(self, arrows, kind) -> str:
        touched: dict[str, int] = {g.name: 0 for g in self.generators}
        for ar in arrows:
            if ar.length < 1:
                raise CFKInvariantViolation(f"{kind} arrow of length {ar.length}")
            for end in (ar.src, ar.dst):
                if end not in touched:
                    raise CFKInvariantViolation(f"unknown generator {end}")
                touched[end] += 1
        for name, count in touched.items():
            if count > 1:
                raise CFKInvariantViolation(
                    f"{name} touches {count} {kind} arrows")
        untouched = [name for name, count in touched.items() if count == 0]
        if len(untouched) != 1:
            raise CFKInvariantViolation(
                f"expected a unique generator with no {kind} arrow, "
                f"found {untouched}")
        return untouched[0]

    def euler(self) -> LaurentHalf:
        acc: dict[int, int] = {}
        for g in self.generators:
            e = 2 * g.alexander
            acc[e] = acc.get(e, 0) + (-1 if g.maslov % 2 else 1)
        return LaurentHalf.from_dict(acc)


IOTA0 = frozenset({1})
IOTA1 = frozenset({2})


def build_cfd(cfk: CFKComplex) -> TypeDStructure:
    """CFD of the 0-framed complement, its chains graded by the torus weights."""
    alg = torus_algebra()
    rho = alg.index
    drop = [(m + 1, alexander_weight2_cfd(r, 0))
            for m, r in zip(m_table(alg.pmc), alg.intervals)]
    make = ModuleGenerator._make
    # every generator made so far: the CFK generators, then the chains'
    table = {g.name: make((g.name, IOTA0, g.maslov & 1, 2 * g.alexander))
             for g in cfk.generators}
    delta: list[tuple] = []
    r23 = rho["rho23"]

    def chain(prefix, x, y, length, inward, first, last):
        """length iota1 generators prefix1, prefix2, ... joining x to y, the
        edges between them pointing towards prefix1 when inward (the vertical
        shape of the table) and away from it otherwise (the horizontal
        shape).  While one of the names is already given, prefix gains a "'".
        The edge from x grades prefix1, and each rho23 edge the next one:
        across (src, i, dst), (m, 2a) drops by drop[i]."""
        c = [f"{prefix}{j}" for j in range(1, length + 1)]
        while not table.keys().isdisjoint(c):
            prefix += "'"
            c = [f"{prefix}{j}" for j in range(1, length + 1)]
        first, last = rho[first], rho[last]
        (_, _, m, a2), (dm, da2), (sm, sa2) = table[x], drop[first], drop[r23]
        if not inward:
            sm, sa2 = -sm, -sa2
        m, a2 = m - dm, a2 - da2
        for name in c:
            table[name] = make((name, IOTA1, m & 1, a2))
            m, a2 = m + sm, a2 + sa2
        delta.append((x, first, c[0]))
        if inward:
            delta.extend(zip(c[1:], repeat(r23), c))
            delta.append((y, last, c[-1]))
        else:
            delta.extend(zip(c, repeat(r23), c[1:]))
            delta.append((c[-1], last, y))

    for ar in cfk.vertical:
        chain(f"v[{ar.src}>{ar.dst}]", ar.src, ar.dst, ar.length, True, "rho1", "rho123")
    for ar in cfk.horizontal:
        chain(f"h[{ar.src}>{ar.dst}]", ar.src, ar.dst, ar.length, False, "rho3", "rho2")
    if cfk.tau == 0:
        delta.append((cfk.xi_v, rho["rho12"], cfk.xi_h))
    elif cfk.tau > 0:
        chain("u", cfk.xi_v, cfk.xi_h, 2 * cfk.tau, True, "rho1", "rho3")
    else:
        chain("u", cfk.xi_v, cfk.xi_h, -2 * cfk.tau, False, "rho123", "rho2")
    return TypeDStructure.built(alg.pmc, table, delta)


def verify_a1(cfd: TypeDStructure, cfk: CFKComplex) -> LaurentHalf:
    """The a1 component of [CFD] must be the Euler characteristic of CFK."""
    component = class_of(cfd).coefficient(IOTA0)
    lhs = normalize_symmetric(component)
    rhs = normalize_symmetric(cfk.euler())
    if lhs != rhs:
        raise Mismatch(f"a1 component {lhs} differs from chi(CFK) = {rhs}")
    return lhs.poly


def verify_a2_zero(cfd: TypeDStructure) -> None:
    """The a2 component vanishes: exponent by exponent, the iota1 generators
    with even m balance those with odd m."""
    component = class_of(cfd).coefficient(IOTA1)
    if component:
        raise A2NonZero(f"a2 component is {component}")
