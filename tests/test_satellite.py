import itertools
import json
import shutil

import pytest

from bdecat import serialize
from bdecat.cfk2cfd import build_cfd
from bdecat.dmodules import AInfModule, ModuleGenerator
from bdecat.grothendieck import LaurentHalf, normalize_symmetric, substitute
from bdecat.satellite import (PatternClass,
                              check_satellite_formula, decompose,
                              satellite_polynomial)
from scripts import satellite_report
from tests.conftest import CFK_NAMES, PATTERN_NAMES, fixture_path, load_fixture
from tests.helpers import t2


def test_core_pattern_decomposition():
    q, p = decompose(load_fixture("cfa_core"))
    assert q == LaurentHalf.one()
    assert not p


def test_meridian_style_decomposition(torus):
    pc = PatternClass(AInfModule(torus, [ModuleGenerator("w", {2}, 0, a2=0)], []), 1)
    q, p = decompose(pc)
    assert not q
    assert p == LaurentHalf.one()


def test_two_generator_p_component(torus):
    gens = [ModuleGenerator("w1", {2}, 0, a2=4), ModuleGenerator("w2", {2}, 1, a2=-2)]
    pc = PatternClass(AInfModule(torus, gens, []), 1)
    q, p = decompose(pc)
    assert not q
    assert p == t2(4) + t2(-2, -1)


def test_core_against_trefoil():
    res = satellite_polynomial(load_fixture("cfa_core"),
                               build_cfd(load_fixture("cfk_trefoil_right")))
    assert res.symmetric
    assert res.poly == t2(2) + t2(0, -1) + t2(-2)


def test_core_against_figure8():
    res = satellite_polynomial(load_fixture("cfa_core"),
                               build_cfd(load_fixture("cfk_figure8")))
    assert res.poly == t2(2, -1) + t2(0, 3) + t2(-2, -1)


def test_any_pattern_against_unknot_returns_q():
    unknot = load_fixture("cfk_unknot")
    for name in PATTERN_NAMES:
        pc = load_fixture(name)
        q, _ = decompose(pc)
        if not q:
            continue
        assert satellite_polynomial(pc, build_cfd(unknot)) == normalize_symmetric(q)


@pytest.mark.parametrize("pattern,companion",
                         list(itertools.product(PATTERN_NAMES, CFK_NAMES)))
def test_formula_on_all_shipped_pairs(pattern, companion):
    check_satellite_formula(load_fixture(pattern), load_fixture(companion))


def test_winding2_pattern_p_is_invisible():
    """Q = 1 with arbitrary nonzero P against the trefoil gives t^2 - 1 + t^-2."""
    res = satellite_polynomial(load_fixture("cfa_winding2"),
                               build_cfd(load_fixture("cfk_trefoil_right")))
    assert res.poly == t2(4) + t2(0, -1) + t2(-4)


def test_p_perturbation_invariance(torus):
    """Adding iota1 generators perturbs P but never the satellite polynomial."""
    base = load_fixture("cfa_trefoil_pattern")
    companion = build_cfd(load_fixture("cfk_trefoil_right"))
    reference = satellite_polynomial(base, companion)
    for extra_m, extra_a2 in ((0, 1), (1, -3), (0, 4)):
        gens = list(base.cfa.generators.values()) + [
            ModuleGenerator("pert", {2}, extra_m, a2=extra_a2)]
        perturbed = PatternClass(AInfModule(torus, gens, []), base.winding)
        assert decompose(perturbed)[1] != decompose(base)[1]
        assert satellite_polynomial(perturbed, companion) == reference


def test_satellite_evaluates_to_unit_at_one():
    for pattern in PATTERN_NAMES:
        pc = load_fixture(pattern)
        q, _ = decompose(pc)
        if q.evaluate_at_one() not in (1, -1):
            continue
        for companion in CFK_NAMES:
            res = satellite_polynomial(pc, build_cfd(load_fixture(companion)))
            assert res.poly.evaluate_at_one() in (1, -1)


def test_core_winding_fixture_integrity():
    """The core carries winding 1: satellite = substitute(Delta, k) iff k = 1."""
    core = load_fixture("cfa_core")
    assert core.winding == 1
    companion = load_fixture("cfk_trefoil_right")
    from bdecat.cfk2cfd import verify_a1
    cfd = build_cfd(companion)
    delta = verify_a1(cfd, companion)
    assert satellite_polynomial(core, cfd).poly == substitute(delta, 1)
    wrong = PatternClass(core.cfa, 2)
    assert satellite_polynomial(wrong, cfd).poly != substitute(delta, 1)


def test_pairing_equals_q_times_delta_before_normalization():
    """The identity is exact, not just exact up to the symmetrization:
    the a2 component of the companion class vanishes, so the cross term
    drops out of the raw pairing."""
    from bdecat.grothendieck import class_of, pair
    for pattern, companion in itertools.product(PATTERN_NAMES, CFK_NAMES):
        pc = load_fixture(pattern)
        cfk = load_fixture(companion)
        cfd = build_cfd(cfk)
        raw = pair(class_of(pc.cfa), substitute(class_of(cfd), pc.winding))
        q, _ = decompose(pc)
        delta = class_of(cfd).coefficient(frozenset({1}))
        assert raw == q * substitute(delta, pc.winding)


def test_the_report_script_fails_a_pattern_that_fails_its_check(tmp_path, capsys,
                                                                 monkeypatch):
    """m2(u, rho12) = u breaks the arity-3 relation on (rho1, rho2), indices
    (1, 5); `bdecat satellite` exits 2 on it, and the report prints one FAIL
    row for it and exits 1."""
    data = serialize.load_file(fixture_path("cfa_with_ops"))
    data["ops"] = [{"x": "u", "algs": ["rho12"], "y": "u"}]
    (tmp_path / "cfa_broken.json").write_text(json.dumps(data))
    shutil.copy(fixture_path("cfk_trefoil_right"), tmp_path)
    monkeypatch.setattr(satellite_report, "FIXTURES", str(tmp_path))
    assert satellite_report.main() == 1
    assert capsys.readouterr().out == (
        "pattern cfa_broken.json: FAIL (arity 3 at x=u, inputs (1, 5): residual ['u'])\n")
    shutil.copy(fixture_path("cfa_with_ops"), tmp_path / "cfa_broken.json")
    assert satellite_report.main() == 0
    assert capsys.readouterr().out.count("OK") == 1
