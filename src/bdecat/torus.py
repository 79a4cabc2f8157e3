"""The torus algebra and the Alexander weight maps for torus boundary.

The torus circle has four points matched (1,2,1,2); the middle summand of
its algebra has two idempotents iota0 (pair 1) and iota1 (pair 2) and six
Reeb elements rho1, rho2, rho3, rho12, rho23, rho123 named by the boundary
intervals they cover.  The only nonzero chord products are
rho1*rho2 = rho12, rho2*rho3 = rho23, rho1*rho23 = rho12*rho3 = rho123.

The spin^c component of the unrefined grading is the interval multiplicity
triple (r1, r2, r3).  For the n-framed knot complement the Alexander weight
of a coefficient is ((n+1)/2) r1 + ((n-1)/2) r2 + ((-n-1)/2) r3; for a
pattern of winding p in the 0-framed solid torus it is d - p (r2 + r3) with
d the basepoint multiplicity (zero for every hat-flavor operation).  The
weight functions return twice these weights, as integers.
"""

from __future__ import annotations

from functools import lru_cache

from .dmodules import AInfModule, TypeDStructure
from .grading import m_table, ratio_str
from .pmc import ReebChord, torus_pmc
from .strands import az_basis


class BigradingViolation(ValueError):
    pass


ELEMENT_CHORDS = {
    "rho1": (ReebChord(1, 2),),
    "rho2": (ReebChord(2, 3),),
    "rho3": (ReebChord(3, 4),),
    "rho12": (ReebChord(1, 3),),
    "rho23": (ReebChord(2, 4),),
    "rho123": (ReebChord(1, 4),),
}

INTERVALS = {
    "iota0": (0, 0, 0),
    "iota1": (0, 0, 0),
    "rho1": (1, 0, 0),
    "rho2": (0, 1, 0),
    "rho3": (0, 0, 1),
    "rho12": (1, 1, 0),
    "rho23": (0, 1, 1),
    "rho123": (1, 1, 1),
}

_NONZERO_PRODUCTS = {
    ("rho1", "rho2"): "rho12",
    ("rho2", "rho3"): "rho23",
    ("rho1", "rho23"): "rho123",
    ("rho12", "rho3"): "rho123",
}


class TorusAlgebra:
    """The basis index of each of the eight named elements of A(Z(T^2), 0),
    read from its label (chords, left pair set), and each index's name."""

    def __init__(self):
        self.pmc = torus_pmc()
        self.basis = az_basis(self.pmc)
        labels = {"iota0": ((), frozenset({1})), "iota1": ((), frozenset({2}))}
        for name, (c,) in ELEMENT_CHORDS.items():
            labels[name] = (((c.start, c.end),), frozenset({self.pmc.pair_of(c.start)}))
        self.index: dict[str, int] = {name: self.basis.by_label[label]
                                      for name, label in labels.items()}
        by_index = {i: name for name, i in self.index.items()}
        self.names: tuple[str, ...] = tuple(by_index[i] for i in range(len(self.basis)))
        self._verify_table()

    def _verify_table(self):
        """Read the named products off the strands table of A(Z, 0)."""
        names = self.names
        table = {(names[i], names[j]): names[p[0]] if len(p) == 1 else p
                 for (i, j), p in self.basis.products.items()}
        rho = {ab: c for ab, c in table.items() if "iota" not in ab[0] + ab[1]}
        if rho != _NONZERO_PRODUCTS:
            raise AssertionError(f"expected {_NONZERO_PRODUCTS}, strands gave {rho}")
        for x in names:
            # iota0 + iota1 fixes x when exactly one of the two does
            if {table.get((u, x)) for u in ("iota0", "iota1")} != {x, None} or \
                    {table.get((x, u)) for u in ("iota0", "iota1")} != {x, None}:
                raise AssertionError(f"iota0+iota1 is not a unit on {x}")


@lru_cache(maxsize=1)
def torus_algebra() -> TorusAlgebra:
    return TorusAlgebra()


def alexander_weight2_cfd(r: tuple[int, int, int], n: int) -> int:
    """Twice the Alexander weight of an interval triple for the n-framed complement."""
    r1, r2, r3 = r
    return (n + 1) * r1 + (n - 1) * r2 - (n + 1) * r3


def alexander_weight2_cfa(r: tuple[int, int, int], d: int, p: int) -> int:
    """Twice the Alexander weight of (r; d) for a pattern of winding p in the
    solid torus.

    The interval functional is the refined coordinate q2 = (-r1+r2+r3)/2, the
    unique choice that kills the periodic class (0, 1, 1; p) and makes the
    box-tensor differential preserve the satellite Alexander grading.
    """
    r1, r2, r3 = r
    return 2 * d - p * (-r1 + r2 + r3)


def coefficient_name(module, i: int) -> str:
    """Name a module's coefficient, given as a basis index, if it is a torus element."""
    if not module.basis.is_torus:
        raise BigradingViolation(f"coefficient with basis index {i} is not a torus element")
    return torus_algebra().names[i]


def check_bigrading(N: TypeDStructure, n: int) -> None:
    """Every delta edge must drop (m, a) by the coefficient's weight.

    For a triple (x, rho_I, y): 2a(x) - 2a(y) = alexander_weight2_cfd([rho_I], n)
    and m(x) = m(rho_I) + m(y) + 1 mod 2.
    """
    m = m_table(N.pmc)
    drop2 = {name: alexander_weight2_cfd(r, n) for name, r in INTERVALS.items()}
    for src, i, dst in N.delta:
        name = coefficient_name(N, i)
        gs, gd = N.generators[src], N.generators[dst]
        want_m = (m[i] + gd.m + 1) % 2
        if gs.m != want_m:
            raise BigradingViolation(
                f"({src}, {name}, {dst}): m({src})={gs.m}, expected {want_m}")
        if gs.a2 is None or gd.a2 is None:
            continue
        if gs.a2 - gd.a2 != drop2[name]:
            raise BigradingViolation(
                f"({src}, {name}, {dst}): a drop {ratio_str(gs.a2 - gd.a2, 2)}, "
                f"expected {ratio_str(drop2[name], 2)}")


def check_cfa_weights(M: AInfModule, p: int) -> None:
    """Hat-flavor operations never cross the second basepoint, so d = 0 and
    a(y) = a(x) + sum of -p (r2 + r3) over the inputs."""
    shift2 = {name: alexander_weight2_cfa(r, 0, p) for name, r in INTERVALS.items()}
    for x, ids, y in M.ops:
        gx, gy = M.generators[x], M.generators[y]
        if gx.a2 is None or gy.a2 is None:
            continue
        want2 = gx.a2 + sum(shift2[coefficient_name(M, idx)] for idx in ids)
        if gy.a2 != want2:
            raise BigradingViolation(
                f"op ({x}; ...; {y}): a({y})={ratio_str(gy.a2, 2)}, "
                f"expected {ratio_str(want2, 2)}")
