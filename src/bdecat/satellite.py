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

from .cfk2cfd import CFKComplex, IOTA0, IOTA1, build_cfd, verify_a1
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


def satellite_polynomial(pc: PatternClass, cfk: CFKComplex,
                         cfd: TypeDStructure | None = None) -> NormalizedPolynomial:
    """[CFA(pattern)] . [CFD(complement), winding], symmetrized.

    cfd, when given, is build_cfd(cfk) already built and checked.
    """
    if cfd is None:
        cfd = build_cfd(cfk)
    raw = pair(class_of(pc.cfa), substitute(class_of(cfd), pc.winding))
    return normalize_symmetric(raw)


def check_satellite_formula(pc: PatternClass, cfk: CFKComplex,
                            cfd: TypeDStructure | None = None) -> NormalizedPolynomial:
    """Assert Delta_{U_C}(t) * Delta_K(t^k) equals the pairing; return it."""
    if cfd is None:
        cfd = build_cfd(cfk)
    lhs = satellite_polynomial(pc, cfk, cfd)
    q, _ = decompose(pc)
    delta_k = verify_a1(cfd, cfk)
    rhs = normalize_symmetric(q * substitute(delta_k, pc.winding))
    if lhs != rhs:
        raise FormulaMismatch(f"pairing {lhs} != Q(t)*Delta(t^k) {rhs}")
    return lhs
