"""Circles whose pairs are not numbered by their first endpoints.

`default_refinement` takes as its base s0 the k pairs whose minus points
come first, and joins the i-th pair of s0 to the i-th pair of t, both in
circle order, so every chord of psi(t) runs upward however the pairs are
numbered.  Over all 506 pair relabelings of the torus and of the 21 genus-2
classes, m is a grading (m(ab) = m(a) + m(b), m(da) = m(a) + 1 and
m(g_i) = 1 for each pair chord), and it is the m of the circle numbered by
first endpoints, carried over by the relabeling.  The commands that read m
exit 0 on the relabeled torus {"matching": [2, 1, 2, 1]}."""

import itertools
import json

import pytest

from bdecat.grading import default_refinement, m_table
from bdecat.pmc import PointedMatchedCircle
from bdecat.strands import AZBasis, az_basis
from tests import grading_oracle as oracle
from tests.test_cli import invoke
from tests.test_grading import GENUS2_CLASSES

CLASSES = [(1, 2, 1, 2)] + GENUS2_CLASSES


def relabelings(matching):
    """(sigma, sigma o matching) for every permutation sigma of the pairs,
    sigma given as the tuple of images of 1..2k."""
    pairs = range(1, max(matching) + 1)
    return [(sigma, tuple(sigma[p - 1] for p in matching))
            for sigma in itertools.permutations(pairs)]


def test_the_sweep_covers_506_circles():
    circles = {m for c in CLASSES for _, m in relabelings(c)}
    assert len(circles) == 506


@pytest.mark.parametrize("matching", CLASSES, ids=lambda m: "".join(map(str, m)))
def test_m_is_the_grading_of_the_first_endpoint_circle_on_every_relabeling(matching):
    original = PointedMatchedCircle(matching)
    m0, labels0 = m_table(original), az_basis(original).labels
    for sigma, relabeled in relabelings(matching):
        pmc = PointedMatchedCircle(relabeled)
        # a fresh basis, so its product table is not kept for 506 circles
        basis, m = AZBasis(pmc), m_table(pmc)
        assert all((m[a] + m[b] - m[r]) % 2 == 0
                   for (a, b), ab in basis.products.items() for r in ab), relabeled
        assert all((m[r] - m[a] - 1) % 2 == 0
                   for a, d in enumerate(basis.differentials) for r in d), relabeled
        pair_chords = {(pmc.points_of_pair(i),) for i in range(1, 2 * pmc.genus + 1)}
        assert all(m[i] == 1 for i, (rho, _) in enumerate(basis.labels)
                   if rho in pair_chords), relabeled
        # s0 and the chords of psi are drawn on the circle, not from the
        # labels, so a(rho, s) keeps its m when s is relabeled
        assert [m[basis.by_label[rho, frozenset(sigma[p - 1] for p in s)]]
                for rho, s in labels0] == list(m0), relabeled


@pytest.mark.parametrize("matching", CLASSES, ids=lambda m: "".join(map(str, m)))
def test_the_refinement_is_the_upward_one_on_every_relabeling(matching):
    """The base and every psi(t) agree with the Fraction reference, which
    checks each chord it draws for orientation; on the circle numbered by
    first endpoints the base is {1..k}."""
    k = len(matching) // 4
    assert default_refinement(PointedMatchedCircle(matching)).base == set(range(1, k + 1))
    for _, relabeled in relabelings(matching):
        pmc = PointedMatchedCircle(relabeled)
        ref = default_refinement(pmc)
        s0, psi = oracle.refinement(pmc)
        assert ref.base == s0, relabeled
        assert {t: (x.j4, x.alpha) for t, x in ref.psi.items()} == {
            t: (int(4 * j), alpha) for t, (j, alpha) in psi.items()}, relabeled


def _write(tmp_path, name, data) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_the_commands_that_read_m_accept_the_relabeled_torus(capsys, tmp_path):
    """x --rho(1,3)--> x on {"matching": [2, 1, 2, 1]}: points 1 and 3 are
    pair 2, so the self-loop is the pair chord g_2, with m = 1, at the
    idempotent {2}.  Each command once exited 2 with "downward strand 2->1"."""
    pmc = {"matching": [2, 1, 2, 1]}
    typed = _write(tmp_path, "typed", {"pmc": pmc, "generators": [
        {"name": "x", "idem": [2], "m": 0}], "delta": [
        {"src": "x", "dst": "x", "coeff": "rho(1,3)"}]})
    for argv in (["k0", typed], ["check", typed]):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
    code, out, err = invoke(capsys, "algebra", "--pmc", _write(tmp_path, "pmc", pmc),
                            "--gradings")
    assert (code, err) == (0, "")
    assert out.startswith("A(Z, 0) has dimension 8\n") and out.count("m=") == 8
