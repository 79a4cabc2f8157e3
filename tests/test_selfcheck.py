import random
from types import MappingProxyType

from bdecat import selfcheck
from bdecat.pmc import split_pmc, torus_pmc
from bdecat.selfcheck import run_selfcheck
from bdecat.strands import AZBasis
from bdecat.torus import torus_algebra
from tests.helpers import checked_grading, odd_jumps


def test_selfcheck_passes_every_line(capsys):
    assert run_selfcheck(verbose=True) == []
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS  split2: products and differentials respect idempotents" in out
    assert "PASS  split2: Leibniz rule on all composable basis pairs (5286 pairs)" in out


def test_selfcheck_prints_the_same_lines_on_every_run(capsys):
    """Only PASS and FAIL lines, no timings, so two runs print the same text."""
    outs = []
    for _ in range(2):
        run_selfcheck(verbose=True)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert all(line.startswith("PASS  ") for line in outs[0].splitlines())


def test_a_product_across_mismatched_idempotents_fails_the_idempotent_line(
        capsys, monkeypatch):
    # Leibniz skips pairs whose idempotents do not compose; an entry there is
    # caught by the idempotent line.  The forged value has the idempotents
    # (left(a), right(b)), so only the composability of the key betrays it.
    build = AZBasis.__dict__["products"].func

    def forged(self):
        table, idem = dict(build(self)), self.idempotents
        n = len(self)
        a, b, r = next((a, b, r) for a in range(n) for b in range(n) for r in range(n)
                       if idem[a][1] != idem[b][0]
                       and idem[r] == (idem[a][0], idem[b][1]))
        table[(a, b)] = (r,)
        return MappingProxyType(table)

    monkeypatch.setattr(AZBasis, "products", property(forged))
    failures = run_selfcheck(verbose=True)
    out = capsys.readouterr().out
    assert "split2: products and differentials respect idempotents" in failures
    assert "FAIL  split2: products and differentials respect idempotents" in out


def _forge_products(monkeypatch, pmc, edit):
    """Patch AZBasis.products so that the table of A(pmc, 0) goes through edit,
    and `factorizations`, its inverse, so that it reads the forged table
    without caching it on the shared basis."""
    build = AZBasis.__dict__["products"].func

    def forged(self):
        table = dict(build(self))
        if self.pmc == pmc and self.i == 0:
            edit(self, table)
        return MappingProxyType(table)

    monkeypatch.setattr(AZBasis, "products", property(forged))
    monkeypatch.setattr(AZBasis, "factorizations",
                        property(AZBasis.__dict__["factorizations"].func))


def test_a_dropped_product_fails_associativity(monkeypatch):
    index = torus_algebra().index

    def drop_rho1_rho2(basis, table):
        del table[index["rho1"], index["rho2"]]  # (rho1 rho2) rho3 = rho1 (rho2 rho3)

    _forge_products(monkeypatch, torus_pmc(), drop_rho1_rho2)
    failures = run_selfcheck(verbose=False)
    assert "torus: associativity on every triple with a nonzero side" in " ".join(failures)
    assert not any(f.startswith("split2") for f in failures)


def test_a_dropped_product_with_a_differential_fails_leibniz(monkeypatch):
    def drop(basis, table):
        diffs = basis.differentials
        del table[next(ab for ab, (r,) in table.items() if diffs[r])]

    _forge_products(monkeypatch, split_pmc(2), drop)
    failures = run_selfcheck(verbose=False)
    assert "split2: Leibniz rule on all composable basis pairs (5286 pairs)" in failures


def _randint_gz_element(pmc, rng):
    """The draw of the f(xy) pairs as randint made it: c in -2..2 on each
    pair chord in turn, then j."""
    alpha = [0] * (pmc.num_points - 1)
    for i in range(1, 2 * pmc.genus + 1):
        lo, hi = pmc.points_of_pair(i)
        c = rng.randint(-2, 2)
        for p in range(lo, hi):
            alpha[p - 1] += c
    alpha = tuple(alpha)
    return checked_grading(odd_jumps(alpha) % 4 + 4 * rng.randint(-3, 3), alpha)


def test_the_f_pairs_are_the_randint_draws_for_seeds_0_to_4(monkeypatch):
    drawn = []
    draw = selfcheck._random_gz_element
    monkeypatch.setattr(selfcheck, "_random_gz_element",
                        lambda pmc, rng: drawn.append(draw(pmc, rng)) or drawn[-1])
    for seed in range(5):
        drawn.clear()
        assert run_selfcheck(verbose=False, seed=seed) == []
        rng = random.Random(seed)
        want = [_randint_gz_element(pmc, rng) for pmc in (torus_pmc(), split_pmc(2))
                for _ in range(2 * selfcheck.HOM_PAIRS)]
        assert drawn == want


def _idempotent_line(name):
    return f"{name}: products and differentials respect idempotents"


def test_a_forged_product_that_keeps_the_idempotents_fails_associativity(monkeypatch):
    # a zero product of a composable pair made nonzero, with a value of the
    # right idempotents: only the associativity sums can catch it
    def forge(basis, table):
        idem, n = basis.idempotents, len(basis)
        a, b, r = next((a, b, r) for a in range(n) for b in range(n) for r in range(n)
                       if idem[a][1] == idem[b][0] and (a, b) not in table
                       and idem[r] == (idem[a][0], idem[b][1]))
        table[a, b] = (r,)

    _forge_products(monkeypatch, torus_pmc(), forge)
    failures = run_selfcheck(verbose=False)
    assert any(f.startswith("torus: associativity on every triple") for f in failures)
    assert _idempotent_line("torus") not in failures
    assert not any(f.startswith("split2") for f in failures)


def test_a_forged_differential_that_keeps_the_idempotents_fails_leibniz(monkeypatch):
    # one more summand in the differential of a split2 element, of the same
    # idempotents as the element
    build = AZBasis.__dict__["differentials"].func
    pmc = split_pmc(2)

    def forged(self):
        diffs = list(build(self))
        if self.pmc == pmc and self.i == 0:
            idem, n = self.idempotents, len(self)
            a, r = next((a, r) for a in range(n) for r in range(n)
                        if r != a and r not in diffs[a] and diffs[a] and idem[r] == idem[a])
            diffs[a] += (r,)
        return tuple(diffs)

    monkeypatch.setattr(AZBasis, "differentials", property(forged))
    monkeypatch.setattr(AZBasis, "d_preimages", property(AZBasis.__dict__["d_preimages"].func))
    failures = run_selfcheck(verbose=False)
    assert "split2: Leibniz rule on all composable basis pairs (5286 pairs)" in failures
    assert _idempotent_line("split2") not in failures
    assert not any(f.startswith("torus") for f in failures)
