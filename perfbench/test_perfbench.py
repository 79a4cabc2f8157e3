"""Tests of the benchmark's own generators and oracles.

    python -m pytest perfbench

The oracles never call bdecat; these tests compare them with bdecat and with
the shipped fixtures, so that a verdict the benchmark rejects is the
program's fault, not the oracle's.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import diagrams  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import staircase  # noqa: E402


def _canonical(cfk: dict):
    """CFK data up to generator names: staircase generators have distinct
    (alexander, maslov) bigradings, so arrows can be keyed by them."""
    grade = {g["name"]: (g["alexander"], g["maslov"]) for g in cfk["generators"]}

    def arrows(key):
        return sorted((grade[a["src"]], grade[a["dst"]], a["length"]) for a in cfk[key])

    return (sorted(grade.values()), arrows("horizontal"), arrows("vertical"), cfk["tau"])


@pytest.mark.parametrize("p, q, mirror, fixture", [
    (2, 3, False, "cfk_trefoil_right.json"),
    (2, 3, True, "cfk_trefoil_left.json"),
    (3, 4, False, "cfk_torus34.json"),
])
def test_staircase_reproduces_fixture(p, q, mirror, fixture):
    shipped = json.loads((ROOT / "fixtures" / fixture).read_text())
    made = staircase.staircase(staircase.torus_alexander(p, q), mirror)
    assert _canonical(made) == _canonical(shipped)


def test_torus_alexander_closed_form():
    assert staircase.torus_alexander(2, 5) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    for p, q in [(2, 7), (3, 7), (4, 9), (5, 6)]:
        delta = staircase.torus_alexander(p, q)
        assert max(delta) == staircase.torus_genus(p, q)
        assert all(delta[-e] == c for e, c in delta.items())
        assert sum(delta.values()) == 1


@pytest.mark.parametrize("p, q, mirror", [(2, 9, False), (3, 5, True), (4, 7, False)])
def test_staircase_matches_bdecat(p, q, mirror):
    from bdecat import serialize
    from bdecat.cfk2cfd import build_cfd, verify_a1
    from bdecat.dmodules import is_bounded
    from bdecat.grothendieck import normalize_symmetric, substitute
    from bdecat.satellite import decompose

    delta = staircase.torus_alexander(p, q)
    cfk_json = staircase.staircase(delta, mirror)
    cfk = serialize.cfk_from_json(cfk_json)
    cfd = build_cfd(cfk)
    assert len(cfd.generators) == staircase.cfd_generator_count(cfk_json)
    got = oracles.from_json(serialize.laurent_to_json(verify_a1(cfd, cfk)))
    assert got == oracles.doubled(delta)
    assert is_bounded(cfd)
    for pattern in ("cfa_trefoil_pattern.json", "cfa_winding2.json"):
        data = json.loads((ROOT / "fixtures" / pattern).read_text())
        case = oracles.StaircaseCase(delta, len(cfd.generators), data, data["winding"])
        q_t, _ = decompose(serialize.pattern_from_json(data))
        assert oracles.from_json(serialize.laurent_to_json(q_t)) == oracles.pattern_q(data)
        want = normalize_symmetric(q_t * substitute(verify_a1(cfd, cfk), data["winding"]))
        assert oracles.from_json(serialize.laurent_to_json(want.poly)) == case.satellite


def test_normalize_symmetric_matches_bdecat():
    from bdecat.grothendieck import LaurentHalf, normalize_symmetric

    rng = random.Random(3)
    for _ in range(200):
        half = rng.randint(0, 3)
        p = {2 * e + (1 if half == 1 else 0): rng.choice((1, -1, 2)) for e in
             rng.sample(range(-4, 5), rng.randint(1, 4))}
        if rng.random() < 0.5:  # make it symmetric about some centre
            shift = rng.randint(-3, 3)
            p = {e + shift: c for e, c in p.items()}
            p.update({-e + 2 * shift: c for e, c in list(p.items())})
        p = {e: c for e, c in p.items() if c}
        ours = oracles.normalize_symmetric(p)
        theirs = normalize_symmetric(LaurentHalf.from_dict(p))
        if theirs.symmetric:
            assert ours == dict(theirs.poly.coeffs)
        else:
            assert ours is None


def _random_small_diagram(rng):
    k = rng.choice((1, 2))
    g = rng.randint(k, 4)
    return k, g, diagrams.random_points(rng, k, g, rng.uniform(0.4, 1.2))


def test_diagram_oracles_match_bdecat():
    from bdecat.diagram import (BorderedDiagram, DiagramPoint, det_int, enumerate_generators,
                                h1_rel_order_oracle, intersection_matrix)
    from bdecat.pmc import split_pmc, torus_pmc

    rng = random.Random(11)
    for _ in range(60):
        k, g, points = _random_small_diagram(rng)
        d = BorderedDiagram(torus_pmc() if k == 1 else split_pmc(k), g, g - k,
                            [DiagramPoint((kind, idx), beta, sign, i)
                             for i, (kind, idx, beta, sign) in enumerate(points)])
        signed, counts = diagrams.matrices(k, g, points)
        assert signed == intersection_matrix(d)
        assert diagrams.count_generators(k, g, counts) == len(enumerate_generators(d))
        for s in diagrams.subsets(k):
            rows = diagrams.deleted(k, g, signed, s)
            assert diagrams.leibniz_det(rows) == det_int(rows)
        assert (h1_rel_order_oracle(d) or 0) == diagrams.circle_minors_gcd(k, g, signed)


def test_duality_sign_matches_bdecat():
    from bdecat.diagram import BorderedDiagram, duality_sign
    from bdecat.pmc import split_pmc, torus_pmc

    for k in (1, 2, 3):
        for g in range(k, k + 3):
            d = BorderedDiagram(torus_pmc() if k == 1 else split_pmc(k), g, g - k, [])
            for s in diagrams.subsets(k):
                assert diagrams.duality_sign(k, g, s) == duality_sign(d, frozenset(s))


def test_selftest_oracle():
    good = "PASS  torus: dim A(Z, 0)  = 8\nPASS  split2: x\n\nall identities hold\n"
    assert oracles.check_selftest(0, good) == []
    assert oracles.check_selftest(1, good.replace("PASS  split2", "FAIL  split2"))
    assert oracles.check_selftest(0, good.replace("= 8", "= 9"))


def test_benchmark_json_lists_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {"selftest", "staircase", "diagram"}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "diagram",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
