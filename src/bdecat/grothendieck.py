"""The K0 value type: exterior algebra classes with Laurent coefficients.

K0 of the surface algebra is the free Z-module on subsets s of [2k], written
a_s = a_{j1} ^ ... ^ a_{jn} for the increasingly ordered elements of s, with
coefficients in Z[t^{1/2}, t^{-1/2}].  The class of a graded module counts
its generators: [M] = sum over generators of (-1)^m t^a a_{idempotent}.  The
pairing makes the a_s orthonormal, so the pairing of two classes is the sum
over equal subsets of the products of their Laurent coefficients.

Half-integer exponents are stored as doubled integers; nothing here ever
touches a float or a Fraction.
"""

from __future__ import annotations

from typing import NamedTuple


class GenusMismatch(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class LaurentHalf:
    """Sparse Laurent polynomial in t^(1/2): coeffs holds (doubled exponent,
    nonzero coefficient) pairs, exponents ascending; immutable.  Only
    `from_dict` sorts and drops zeros; the constructor checks nothing."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[int, int], ...] = ()):
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return f"LaurentHalf(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return LaurentHalf, (self.coeffs,)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "LaurentHalf":
        return LaurentHalf(tuple(sorted((e, c) for e, c in d.items() if c)))

    @staticmethod
    def zero() -> "LaurentHalf":
        return LaurentHalf()

    @staticmethod
    def one() -> "LaurentHalf":
        return LaurentHalf(((0, 1),))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "LaurentHalf") -> "LaurentHalf":
        d = self.as_dict()
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return LaurentHalf.from_dict(d)

    def __neg__(self) -> "LaurentHalf":
        return LaurentHalf(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "LaurentHalf") -> "LaurentHalf":
        return self + (-other)

    def __mul__(self, other: "LaurentHalf") -> "LaurentHalf":
        d: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentHalf.from_dict(d)

    def scale(self, c: int) -> "LaurentHalf":
        """c times this (itself if c = 1); c != 0 keeps order and nonzeros."""
        if c == 1:
            return self
        if not c:
            return LaurentHalf()
        return LaurentHalf(tuple((e, c * v) for e, v in self.coeffs))

    def evaluate_at_one(self) -> int:
        return sum(c for _, c in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs, reverse=True):
            if e == 0:
                term = str(abs(c))
            else:
                expo = "" if e == 2 else ("^(%d/2)" % e if e % 2 else "^%d" % (e // 2))
                term = ("" if abs(c) == 1 else str(abs(c)) + "*") + "t" + expo
            parts.append(("- " if c < 0 else "+ ") + term)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


_set_coeffs = LaurentHalf.coeffs.__set__  # per monomial, cheaper than object.__setattr__


def substitute(x, w: int):
    """Replace t by t^w (exponent scaling); works on polynomials and classes.
    At w = 0 every exponent meets at 0, and the polynomial becomes the
    constant p(1)."""
    if isinstance(x, LaurentHalf):
        if not w:
            return LaurentHalf.from_dict({0: x.evaluate_at_one()})
        return LaurentHalf.from_dict({w * e: c for e, c in x.coeffs})
    if isinstance(x, ExteriorClass):
        return ExteriorClass(x.genus,
                             {s: substitute(c, w) for s, c in x.coeffs.items()})
    raise TypeError(f"cannot substitute in {type(x)!r}")


class NormalizedPolynomial(NamedTuple):
    poly: LaurentHalf
    symmetric: bool  # False flags a NotSymmetrizable input

    def __str__(self):
        tag = "" if self.symmetric else "  [not symmetrizable]"
        return f"{self.poly}{tag}"


def normalize_symmetric(p: LaurentHalf) -> NormalizedPolynomial:
    """Center the exponents and fix the sign so q(t) = q(1/t) and q(1) >= 0.

    Centering shifts the doubled exponents by -(span // 2), span the sum of
    the lowest and highest; at odd span the lowest and highest then sum to
    1, and no shift makes the polynomial symmetric.  When it is not
    symmetric, return the centered representative flagged as not
    symmetrizable.
    """
    if not p:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    exps = [e for e, _ in p.coeffs]
    span = min(exps) + max(exps)
    shift = -(span // 2)
    centered = LaurentHalf.from_dict({e + shift: c for e, c in p.coeffs})
    d = centered.as_dict()
    if not all(d.get(-e) == c for e, c in d.items()):
        return NormalizedPolynomial(centered, False)
    total = centered.evaluate_at_one()
    if total < 0 or (total == 0 and d[max(d)] < 0):
        centered = -centered
    return NormalizedPolynomial(centered, True)


_ZERO = LaurentHalf()  # immutable, so every missing coefficient can share it


class ExteriorClass:
    """Element of Lambda* H_1(F; Z) tensor Z[t^(1/2), t^(-1/2)].

    The keys of coeffs are frozenset subsets of [2k]; construction drops the
    zero coefficients (`_make` keeps coeffs as given) and checks no subset.
    Subsets are validated where they enter: a module's idempotents by
    `dmodules._check_generators` as the module is built, and a diagram's by
    construction, since its classes draw their subsets from range(1, 2k + 1)
    or from bit masks of the 2k arcs.  Immutable, and unhashable (a dict)."""

    __slots__ = ("genus", "coeffs")
    __hash__ = None

    def __init__(self, genus: int, coeffs: dict | None = None):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "coeffs", {s: c for s, c in (coeffs or {}).items() if c})

    @staticmethod
    def _make(genus: int, coeffs: dict) -> "ExteriorClass":
        x = object.__new__(ExteriorClass)
        object.__setattr__(x, "genus", genus)
        object.__setattr__(x, "coeffs", coeffs)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return (self.genus, self.coeffs) == (other.genus, other.coeffs) \
            if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"ExteriorClass(genus={self.genus!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return ExteriorClass, (self.genus, self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, s) -> LaurentHalf:
        """The coefficient of a_s; one shared zero when s has none."""
        return self.coeffs.get(frozenset(s), _ZERO)

    def __add__(self, other: "ExteriorClass") -> "ExteriorClass":
        if self.genus != other.genus:
            raise GenusMismatch(f"{self.genus} vs {other.genus}")
        d = dict(self.coeffs)
        for s, c in other.coeffs.items():
            d[s] = d.get(s, _ZERO) + c
        return ExteriorClass(self.genus, d)

    def __neg__(self) -> "ExteriorClass":
        return ExteriorClass(self.genus, {s: -c for s, c in self.coeffs.items()})

    def scale(self, c: int) -> "ExteriorClass":
        return ExteriorClass(self.genus, {s: v.scale(c) for s, v in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        def label(s):
            return "a{" + ",".join(map(str, sorted(s))) + "}"
        parts = [f"({self.coeffs[s]})*{label(s)}"
                 for s in sorted(self.coeffs, key=lambda s: (len(s), sorted(s)))]
        return " + ".join(parts)


def class_from_terms(genus: int, terms) -> ExteriorClass:
    """Sum (subset, doubled exponent, coefficient) terms into one class.

    No subset is checked here: every caller draws its subsets from
    range(1, 2k + 1) or arc bit masks (the diagram classes) or from module
    idempotents that `dmodules._check_generators` checked as the module was
    read (`class_of`).  A subset with a single exponent, as in every diagram
    class, becomes its one monomial directly (or nothing, when the count is
    0).  One with several may still sum to zero, as the a2 component of
    every CFD does; dropped here, so `ExteriorClass._make` needs no filter."""
    acc: dict[frozenset, dict[int, int]] = {}
    for s, e, c in terms:
        s = frozenset(s)
        coeffs = acc.get(s)
        if coeffs is None:
            acc[s] = {e: c}
        else:
            coeffs[e] = coeffs.get(e, 0) + c
    out = {}
    for s, d in acc.items():
        if len(d) > 1:
            if coeffs := tuple(sorted((e, c) for e, c in d.items() if c)):
                out[s] = LaurentHalf(coeffs)
        else:
            (e, c), = d.items()
            if c:
                out[s] = LaurentHalf(((e, c),))
    return ExteriorClass._make(genus, out)


def class_of(module) -> ExteriorClass:
    """[M] = sum over generators of (-1)^m t^a a_{idempotent}.

    `class_from_terms` sums one term per generator, by idempotent, in one
    pass; a record's m is already 0 or 1.  A module's generators are fixed
    when it is built, so the class is summed on the first call and kept in
    its `_k0_class` for the next ones."""
    if module._k0_class is None:
        module._k0_class = class_from_terms(module.pmc.genus, (
            (s, a2 or 0, -1 if m else 1) for _, s, m, a2 in module.generators.values()))
    return module._k0_class


def pair(x: ExteriorClass, y: ExteriorClass) -> LaurentHalf:
    """The inner product with the a_s orthonormal, Laurent-bilinear."""
    if x.genus != y.genus:
        raise GenusMismatch(f"{x.genus} vs {y.genus}")
    total = LaurentHalf.zero()
    for s, c in x.coeffs.items():
        if s in y.coeffs:
            total = total + c * y.coeffs[s]
    return total


def euler_of_complex(complex_) -> LaurentHalf:
    """chi = sum over generators of (-1)^m t^a; a record's m is 0 or 1."""
    acc: dict[int, int] = {}
    for _, _, m, a2 in complex_.generators.values():
        acc[a2 or 0] = acc.get(a2 or 0, 0) + (-1 if m else 1)
    return LaurentHalf.from_dict(acc)
