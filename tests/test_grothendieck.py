import random

import pytest
from hypothesis import given, settings, strategies as st

from bdecat.dmodules import ChainComplex
from bdecat.grothendieck import (GenusMismatch, LaurentHalf, NormalizedPolynomial,
                                 ZeroPolynomial, class_from_terms, class_of,
                                 euler_of_complex, normalize_symmetric, pair,
                                 substitute)
from tests.helpers import basis_class, normal_generator, t2


def poly(*pairs) -> LaurentHalf:
    """Build from (doubled exponent, coefficient) pairs."""
    out = LaurentHalf.zero()
    for e2, c in pairs:
        out = out + t2(e2, c)
    return out


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=5)


def from_dict(d):
    return LaurentHalf.from_dict(d)


def test_substitute_examples():
    delta = poly((2, 1), (0, -1), (-2, 1))
    assert substitute(delta, 2) == poly((4, 1), (0, -1), (-4, 1))
    assert substitute(delta, 1) == delta
    cls = basis_class(1, {1}, t2(1))
    assert substitute(cls, 3).coefficient({1}) == t2(3)


@settings(deadline=None, max_examples=150)
@given(laurents, laurents, st.integers(1, 4))
def test_substitute_is_a_ring_homomorphism(a, b, w):
    x, y = from_dict(a), from_dict(b)
    assert substitute(x + y, w) == substitute(x, w) + substitute(y, w)
    assert substitute(x * y, w) == substitute(x, w) * substitute(y, w)


@settings(deadline=None, max_examples=150)
@given(laurents)
def test_substitute_at_zero_is_the_value_at_one(d):
    """t^0 = 1 sends every exponent to 0, where the coefficients add up."""
    p = from_dict(d)
    assert substitute(p, 0) == LaurentHalf.from_dict({0: p.evaluate_at_one()})


def test_normalize_flags_coefficient_asymmetry():
    # -t^2 + t: centering gives -t^(1/2) + t^(-1/2), whose coefficient
    # pattern is antisymmetric; no monomial shift symmetrizes it
    res = normalize_symmetric(poly((4, -1), (2, 1)))
    assert not res.symmetric
    assert res.poly == poly((1, -1), (-1, 1))


def test_normalize_flags_odd_exponent_span():
    # t^2 + t^(3/2) cannot even be centered on a half-integer grid
    res = normalize_symmetric(poly((4, 1), (3, 1)))
    assert not res.symmetric


def test_normalize_antisymmetric_representative_is_flagged():
    res = normalize_symmetric(poly((6, 1), (4, -1)))
    assert not res.symmetric
    assert res.poly == poly((1, 1), (-1, -1))


def test_normalize_sign_convention():
    res = normalize_symmetric(poly((2, -1), (0, 1), (-2, -1)))
    assert res.symmetric
    assert res.poly == poly((2, 1), (0, -1), (-2, 1))


def test_normalize_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        normalize_symmetric(LaurentHalf.zero())


@settings(deadline=None, max_examples=150)
@given(laurents)
def test_normalize_is_idempotent(d):
    p = from_dict(d)
    if not p:
        return
    first = normalize_symmetric(p)
    again = normalize_symmetric(first.poly)
    assert again.poly == first.poly and again.symmetric == first.symmetric


def normalize_symmetric_two_branch(p: LaurentHalf) -> NormalizedPolynomial:
    """normalize_symmetric as it was, with its own branch for odd span."""
    if not p:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    exps = [e for e, _ in p.coeffs]
    span = min(exps) + max(exps)
    if span % 2 != 0:
        shift = -(span // 2)  # best-effort centering; symmetry is impossible
        centered = LaurentHalf.from_dict({e + shift: c for e, c in p.coeffs})
        return NormalizedPolynomial(centered, False)
    shift = -span // 2
    centered = LaurentHalf.from_dict({e + shift: c for e, c in p.coeffs})
    d = centered.as_dict()
    symmetric = all(d.get(-e) == c for e, c in d.items())
    if not symmetric:
        return NormalizedPolynomial(centered, False)
    total = centered.evaluate_at_one()
    if total < 0 or (total == 0 and d[max(d)] < 0):
        centered = -centered
    return NormalizedPolynomial(centered, True)


def test_one_centering_path_is_the_two_branch_normalization():
    """Symmetric, antisymmetric and odd-span polynomials, drawn so that
    many are symmetric about some centre, normalise as before."""
    rng = random.Random(3)
    odd = symmetric = 0
    for _ in range(3000):
        half = {rng.randint(0, 6): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
        centre, sign = rng.randint(-7, 7), rng.choice([0, 1, -1])
        d = {centre + e: c for e, c in half.items()}
        if sign:
            for e, c in half.items():
                d[centre - e] = d.get(centre - e, 0) + sign * c if e else c
        p = from_dict(d)
        if not p:
            continue
        got = normalize_symmetric(p)
        assert got == normalize_symmetric_two_branch(p), p
        exps = [e for e, _ in p.coeffs]
        odd += (min(exps) + max(exps)) % 2
        symmetric += got.symmetric
    assert odd > 250 and symmetric > 500


def test_pair_orthonormality():
    a12 = basis_class(2, {1, 2})
    assert pair(a12, a12) == LaurentHalf.one()
    a1, a2 = basis_class(2, {1}), basis_class(2, {2})
    assert not pair(a1, a2)
    assert pair(a1 + a12, a1) == LaurentHalf.one()


def test_basis_class_with_zero_polynomial_is_zero():
    cls = basis_class(1, {1}, LaurentHalf.zero())
    assert not cls and str(cls) == "0"
    assert basis_class(1, {1}).coefficient({1}) == LaurentHalf.one()


def test_pair_genus_mismatch():
    with pytest.raises(GenusMismatch):
        pair(basis_class(1, {1}), basis_class(2, {1}))


@settings(deadline=None, max_examples=100)
@given(laurents, laurents, laurents)
def test_pair_symmetric_and_bilinear(a, b, c):
    x = basis_class(1, {1}, from_dict(a)) + basis_class(1, {2}, from_dict(b))
    y = basis_class(1, {2}, from_dict(c)) + basis_class(1, set(), from_dict(a))
    assert pair(x, y) == pair(y, x)
    assert pair(x + y, y) == pair(x, y) + pair(y, y)


def test_class_of_single_generator(torus):
    from bdecat.dmodules import TypeDStructure
    N = TypeDStructure(torus, [normal_generator("x", {1}, 0, a2=0)], [])
    assert class_of(N) == basis_class(1, {1})


def test_class_is_additive_over_disjoint_unions(torus):
    from bdecat.dmodules import TypeDStructure
    a = TypeDStructure(torus, [normal_generator("x", {1}, 0, a2=2)], [])
    b = TypeDStructure(torus, [normal_generator("y", {2}, 1, a2=0)], [])
    both = TypeDStructure(torus, [normal_generator("x", {1}, 0, a2=2),
                                  normal_generator("y", {2}, 1, a2=0)], [])
    assert class_of(both) == class_of(a) + class_of(b)


def test_each_module_sums_its_own_class_once(monkeypatch):
    """The class is kept on the module: a second call on one module sums
    nothing, and an equal module built apart sums its own."""
    import bdecat.grothendieck as grothendieck
    from tests.conftest import load_fixture
    calls = []

    def counting(*args):
        calls.append(args[0])
        return class_from_terms(*args)
    monkeypatch.setattr(grothendieck, "class_from_terms", counting)
    first, second = load_fixture("typed_triangle"), load_fixture("cfa_with_ops").cfa
    again = load_fixture("typed_triangle")
    assert class_of(first) is class_of(first)
    assert class_of(again) == class_of(first) and class_of(again) is not class_of(first)
    assert class_of(second) is class_of(second)
    assert len(calls) == 3


def test_euler_examples():
    empty = ChainComplex(generators={}, differential=frozenset())
    assert not euler_of_complex(empty)
    two = ChainComplex(generators={
        "a": normal_generator("a", {1}, 0, a2=2),
        "b": normal_generator("b", {1}, 1, a2=2)}, differential=frozenset())
    assert not euler_of_complex(two)


def test_triangle_class_is_single_monomial():
    from tests.conftest import load_fixture
    triangle = load_fixture("typed_triangle")
    cls = class_of(triangle)
    assert set(cls.coeffs) == {frozenset({1})}
    assert cls.coefficient({1}) == t2(1, -1)


def test_the_value_types_print_compare_and_hash_as_the_dataclasses_did():
    import copy
    import pickle

    from bdecat.grothendieck import ExteriorClass
    p = LaurentHalf(((-1, 2), (4, -1)))
    assert repr(p) == "LaurentHalf(coeffs=((-1, 2), (4, -1)))"
    assert repr(LaurentHalf()) == "LaurentHalf(coeffs=())"
    # a frozen dataclass hashed the tuple of its fields
    assert hash(p) == hash((((-1, 2), (4, -1)),))
    assert p == LaurentHalf(((-1, 2), (4, -1))) and p != LaurentHalf() and p != p.coeffs
    cls = ExteriorClass(1, {frozenset({1}): p, frozenset({2}): LaurentHalf()})
    assert repr(cls) == ("ExteriorClass(genus=1, coeffs={frozenset({1}): "
                         "LaurentHalf(coeffs=((-1, 2), (4, -1)))})")
    assert cls == ExteriorClass(1, {frozenset({1}): p}) != ExteriorClass(2, {frozenset({1}): p})
    assert ExteriorClass(3).coeffs == {} and not ExteriorClass(3)
    with pytest.raises(TypeError, match="unhashable"):
        hash(cls)
    for value, field in ((p, "coeffs"), (cls, "coeffs"), (cls, "genus")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    for value in (p, cls):
        assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))


def test_zero_sums_are_dropped_from_classes():
    # one subset whose exponents cancel, as the a2 component of a CFD does
    cls = class_from_terms(1, [({2}, 0, 1), ({2}, 2, -1), ({2}, 2, 1), ({2}, 0, -1),
                               ({1}, 4, 3)])
    assert list(cls.coeffs) == [frozenset({1})] and cls.coefficient({2}) == LaurentHalf()
    assert not cls.scale(0) and not (cls + -cls)


def test_the_value_types_load_no_dataclasses():
    import os
    import subprocess
    import sys

    import bdecat
    src = os.path.dirname(os.path.dirname(bdecat.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bdecat.grothendieck; "
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"
