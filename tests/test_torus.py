import pytest

from bdecat.dmodules import (GradingIncompatible, ModuleGenerator, TypeDStructure,
                              check_type_d)
from bdecat.grading import m_table
from bdecat.strands import multiply
from bdecat.torus import (BigradingViolation, alexander_weight2_cfa,
                          alexander_weight2_cfd, check_bigrading, check_cfa_weights)
from tests.conftest import load_fixture
from tests.helpers import TORUS_CHORDS, TORUS_INTERVALS, a_of, pair_idempotent

EXPECTED_PRODUCTS = {
    ("rho1", "rho2"): "rho12",
    ("rho2", "rho3"): "rho23",
    ("rho1", "rho23"): "rho123",
    ("rho12", "rho3"): "rho123",
}


LEFT_IDEM = {"iota0": "iota0", "iota1": "iota1",
             "rho1": "iota0", "rho2": "iota1", "rho3": "iota0",
             "rho12": "iota0", "rho23": "iota1", "rho123": "iota0"}
RIGHT_IDEM = {"iota0": "iota0", "iota1": "iota1",
              "rho1": "iota1", "rho2": "iota0", "rho3": "iota1",
              "rho12": "iota0", "rho23": "iota1", "rho123": "iota1"}


def expected_product(a: str, b: str) -> str | None:
    if a.startswith("iota"):
        return b if LEFT_IDEM[b] == a else None
    if b.startswith("iota"):
        return a if RIGHT_IDEM[a] == b else None
    return EXPECTED_PRODUCTS.get((a, b))


@pytest.fixture(scope="module")
def elements(talg):
    """The eight named elements, built from their chords and idempotents."""
    els = {"iota0": pair_idempotent(talg.pmc, {1}), "iota1": pair_idempotent(talg.pmc, {2})}
    els.update((name, a_of(talg.pmc, rho, 0)) for name, rho in TORUS_CHORDS.items())
    return els


def test_each_name_indexes_its_element(talg, elements):
    assert {name: talg.basis.elements[i] for name, i in talg.index.items()} == elements
    assert [talg.index[name] for name in talg.names] == list(range(8))


def test_full_multiplication_table(elements):
    """All 64 products of the eight named elements."""
    checked = 0
    for a in elements:
        for b in elements:
            prod = multiply(elements[a], elements[b])
            expected = expected_product(a, b)
            if expected is None:
                assert not prod, f"{a}*{b} should vanish"
            else:
                assert prod == elements[expected], f"{a}*{b}"
            checked += 1
    assert checked == 64


def test_product_table_through_names(talg):
    """The strands product table read through the derived names: the
    nonzero chord products are EXPECTED_PRODUCTS, and iota0 + iota1 fixes
    each element from both sides, exactly one of the two doing so."""
    names = talg.names
    table = {(names[i], names[j]): tuple(names[k] for k in p)
             for (i, j), p in talg.basis.products.items()}
    assert {ab: c for ab, c in table.items() if "iota" not in ab[0] + ab[1]} == \
        {ab: (c,) for ab, c in EXPECTED_PRODUCTS.items()}
    for x in names:
        assert {table.get((u, x)) for u in ("iota0", "iota1")} == {(x,), None}
        assert {table.get((x, u)) for u in ("iota0", "iota1")} == {(x,), None}


def test_rho2_rho1_vanishes(elements):
    assert not multiply(elements["rho2"], elements["rho1"])


def test_unit_decomposition(elements):
    unit = elements["iota0"] + elements["iota1"]
    for el in elements.values():
        assert multiply(unit, el) == el
        assert multiply(el, unit) == el


def test_cfd_weights_at_framing_zero():
    assert alexander_weight2_cfd((1, 0, 0), 0) == 1
    assert alexander_weight2_cfd((0, 1, 0), 0) == -1
    assert alexander_weight2_cfd((0, 0, 1), 0) == -1
    assert alexander_weight2_cfd((0, 0, 0), 5) == 0


@pytest.mark.parametrize("n", range(-3, 4))
def test_framed_longitude_class_is_in_the_kernel(n):
    assert alexander_weight2_cfd((1, n + 1, n), n) == 0
    assert alexander_weight2_cfd((2, 2 * (n + 1), 2 * n), n) == 0


def test_cfa_weights():
    # the periodic class ((0,1,1); d = p) is in the kernel for every winding
    for p in range(4):
        assert alexander_weight2_cfa((0, 1, 1), p, p) == 0
        assert alexander_weight2_cfa((0, 2, 2), 2 * p, p) == 0
    assert alexander_weight2_cfa((0, 0, 0), 1, 7) == 2
    assert alexander_weight2_cfa((5, 2, 9), 4, 0) == 8  # winding 0 ignores r


def test_cfa_weight_compatible_with_cfd_weight():
    """The weighted box-tensor differential preserves a: the A-side gain
    p * w_cfd cancels the D-side drop w_cfd scaled by the winding weight."""
    for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)):
        for p in range(4):
            assert alexander_weight2_cfa(r, 0, p) == \
                p * alexander_weight2_cfd(r, 0)


def test_m_values_multiplicative(talg):
    m = {name: m_table(talg.pmc)[i] for name, i in talg.index.items()}
    assert m["rho12"] == (m["rho1"] + m["rho2"]) % 2
    assert m["rho23"] == (m["rho2"] + m["rho3"]) % 2
    assert m["rho123"] == (m["rho1"] + m["rho2"] + m["rho3"]) % 2


def test_intervals_table_matches_grading(talg, elements):
    from bdecat.grading import gr_prime
    for name, el in elements.items():
        assert gr_prime(el).alpha == TORUS_INTERVALS[name]
        assert talg.intervals[talg.index[name]] == TORUS_INTERVALS[name]


def test_check_bigrading_accepts_unknot_loop(talg, torus):
    N = TypeDStructure(torus, [ModuleGenerator("x", {1}, 0, a2=0)],
                       [("x", talg.index["rho12"], "x")])
    check_bigrading(N, 0)


def test_check_bigrading_accepts_built_cfd():
    from bdecat.cfk2cfd import build_cfd
    cfd = build_cfd(load_fixture("cfk_trefoil_right"))
    check_bigrading(cfd, 0)


def test_check_bigrading_rejects_shifted_a(talg, torus):
    # a drop 1 across a rho12 arrow whose weight is 0
    gens = [ModuleGenerator("x", {1}, 0, a2=4), ModuleGenerator("y", {1}, 0, a2=2)]
    N = TypeDStructure(torus, gens, [("x", talg.index["rho12"], "y")])
    with pytest.raises(BigradingViolation, match=r"^\(x, rho12, y\): a drop 1, expected 0$"):
        check_bigrading(N, 0)


def test_check_type_d_rejects_wrong_m(talg, torus):
    # rho1 has m = 0, so the edge needs m(x) = m(y) + 1; check_bigrading
    # checks only the Alexander drop, which is right here
    gens = [ModuleGenerator("x", {1}, 0, a2=1),
            ModuleGenerator("y", {2}, 0, a2=0)]
    N = TypeDStructure(torus, gens, [("x", talg.index["rho1"], "y")])
    with pytest.raises(GradingIncompatible,
                       match=r"^x->y: m\(x\)=0 but m\(coeff\)\+m\(y\)\+1=1$"):
        check_type_d(N)
    check_bigrading(N, 0)


def test_check_cfa_weights_fixture():
    pattern = load_fixture("cfa_with_ops")
    check_cfa_weights(pattern.cfa, pattern.winding)


def test_check_cfa_weights_rejects_bad_a(torus, talg):
    from bdecat.dmodules import AInfModule
    M = AInfModule(torus, [ModuleGenerator("u", {1}, 0, a2=0),
                           ModuleGenerator("w", {2}, 1, a2=0)],
                   [("w", [talg.index["rho2"]], "u")])
    with pytest.raises(BigradingViolation,
                       match=r"^op \(w; \.\.\.; u\): a\(u\)=0, expected -1/2$"):
        check_cfa_weights(M, 1)


def test_weight_checks_reject_a_module_over_another_circle(split2):
    from bdecat.dmodules import AInfModule
    gens = [ModuleGenerator("x", {1, 2}, 0, a2=0)]
    with pytest.raises(BigradingViolation, match="^module is not over the torus algebra$"):
        check_bigrading(TypeDStructure(split2, gens, []), 0)
    with pytest.raises(BigradingViolation, match="^module is not over the torus algebra$"):
        check_cfa_weights(AInfModule(split2, gens, []), 1)
