"""The decategorified satellite formula.

A pattern with winding number p in the 0-framed solid torus is given by an
A-infinity module over the torus algebra whose class decomposes as
Q(t) a_1 + P(t) a_2, with Q the Alexander polynomial of the pattern applied
to the unknot.  Pairing against the class of the 0-framed complement of a
companion K, with t replaced by t^p on the companion side, yields the
Alexander polynomial of the satellite: Q(t) * Delta_K(t^p).  The P component
never contributes because the a_2 component of the companion class vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cfk2cfd import (CFKComplex, IOTA0, IOTA1, build_cfd, verify_a1,
                      verify_a2_zero)
from .dmodules import AInfModule, TypeDStructure
from .grothendieck import (LaurentHalf, NormalizedPolynomial, class_of,
                           normalize_symmetric, pair, substitute)


class FormulaMismatch(ValueError):
    pass


@dataclass
class PatternClass:
    cfa: AInfModule
    winding: int

    def __post_init__(self):
        if self.winding < 0:
            raise ValueError("winding number must be nonnegative")


def decompose(pc: PatternClass) -> tuple[LaurentHalf, LaurentHalf]:
    """The (Q, P) components of the pattern class."""
    cls = class_of(pc.cfa)
    return cls.coefficient(IOTA0), cls.coefficient(IOTA1)


def satellite_polynomial(pc: PatternClass,
                         companion: TypeDStructure) -> NormalizedPolynomial:
    """[CFA(pattern)] . [CFD(companion complement), winding], symmetrized."""
    raw = pair(class_of(pc.cfa), substitute(class_of(companion), pc.winding))
    return normalize_symmetric(raw)


class SatelliteCheck(NamedTuple):
    """What check_satellite_formula computed: the pattern components, the
    companion's Alexander polynomial, and the two equal sides."""
    q: LaurentHalf
    p: LaurentHalf
    delta_k: LaurentHalf
    pairing: NormalizedPolynomial
    satellite: NormalizedPolynomial


def check_satellite_formula(pc: PatternClass, cfk: CFKComplex) -> SatelliteCheck:
    """Build CFD(K) once, check that its a1 component is Delta_K and its a2
    component is zero, and that the pairing equals Delta_{U_C}(t) * Delta_K(t^k)."""
    cfd = build_cfd(cfk)
    delta_k = verify_a1(cfd, cfk)
    verify_a2_zero(cfd)
    q, p = decompose(pc)
    lhs = satellite_polynomial(pc, cfd)
    rhs = normalize_symmetric(q * substitute(delta_k, pc.winding))
    if lhs != rhs:
        raise FormulaMismatch(f"pairing {lhs} != Q(t)*Delta(t^k) {rhs}")
    return SatelliteCheck(q, p, delta_k, lhs, rhs)
