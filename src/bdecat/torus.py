"""The torus algebra and the Alexander weight maps for torus boundary.

The torus circle has four points matched (1,2,1,2); the middle summand of
its algebra has two idempotents iota0 (pair 1) and iota1 (pair 2) and six
Reeb elements rho1, rho2, rho3, rho12, rho23, rho123.  Each name is read
from the element's basis label: the idempotent of pair p is iota{p-1}, and
the chord (a, b) is rho followed by the intervals a, ..., b-1 it covers,
interval j running from point j to point j+1.  The only nonzero chord
products are rho1*rho2 = rho12, rho2*rho3 = rho23,
rho1*rho23 = rho12*rho3 = rho123, as the strands product table gives them.

The spin^c component of the unrefined grading is the interval multiplicity
triple (r1, r2, r3), the number of chords covering each interval.  For the
n-framed knot complement the Alexander weight of a coefficient is
((n+1)/2) r1 + ((n-1)/2) r2 + ((-n-1)/2) r3; for a pattern of winding p in
the 0-framed solid torus it is d - p (r2 + r3) with d the basepoint
multiplicity (zero for every hat-flavor operation).  The
weight functions return twice these weights, as integers.
"""

from __future__ import annotations

from functools import lru_cache

from .dmodules import AInfModule, TypeDStructure
from .grading import ratio_str
from .pmc import torus_pmc
from .strands import az_basis


class BigradingViolation(ValueError):
    pass


class TorusAlgebra:
    """The eight elements of A(Z(T^2), 0), read from the labels of its basis:
    the name and interval triple of each basis index, and the index of each
    name."""

    def __init__(self):
        self.pmc = torus_pmc()
        self.basis = az_basis(self.pmc)
        self.names: tuple[str, ...] = tuple(
            "rho" + "".join(str(j) for a, b in rho for j in range(a, b)) if rho
            else f"iota{min(s) - 1}" for rho, s in self.basis.labels)
        self.intervals: tuple[tuple[int, int, int], ...] = tuple(
            tuple(sum(a <= j < b for a, b in rho) for j in (1, 2, 3))
            for rho, _ in self.basis.labels)
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}


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


def _torus_of(module) -> TorusAlgebra:
    """The torus algebra, if module is over it."""
    if not module.basis.is_torus:
        raise BigradingViolation("module is not over the torus algebra")
    return torus_algebra()


def check_bigrading(N: TypeDStructure, n: int) -> None:
    """Every delta edge (x, rho_I, y) must drop a by the coefficient's weight:
    2a(x) - 2a(y) = alexander_weight2_cfd([rho_I], n).  The Z/2 grading m is
    check_type_d's to check."""
    alg = _torus_of(N)
    drop2 = [alexander_weight2_cfd(r, n) for r in alg.intervals]
    for src, i, dst in N.delta:
        gs, gd = N.generators[src], N.generators[dst]
        if gs.a2 is None or gd.a2 is None:
            continue
        if gs.a2 - gd.a2 != drop2[i]:
            raise BigradingViolation(
                f"({src}, {alg.names[i]}, {dst}): a drop {ratio_str(gs.a2 - gd.a2, 2)}, "
                f"expected {ratio_str(drop2[i], 2)}")


def check_cfa_weights(M: AInfModule, p: int) -> None:
    """Hat-flavor operations never cross the second basepoint, so d = 0 and
    a(y) = a(x) + sum of -p (r2 + r3) over the inputs."""
    shift2 = [alexander_weight2_cfa(r, 0, p) for r in _torus_of(M).intervals]
    for x, ids, y in M.ops:
        gx, gy = M.generators[x], M.generators[y]
        if gx.a2 is None or gy.a2 is None:
            continue
        want2 = gx.a2 + sum(shift2[i] for i in ids)
        if gy.a2 != want2:
            raise BigradingViolation(
                f"op ({x}; ...; {y}): a({y})={ratio_str(gy.a2, 2)}, "
                f"expected {ratio_str(want2, 2)}")
