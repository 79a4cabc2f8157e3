from types import MappingProxyType

from bdecat.selfcheck import run_selfcheck
from bdecat.strands import AZBasis


def test_selfcheck_passes_every_line(capsys):
    assert run_selfcheck(verbose=True) == []
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS  split2: products and differentials respect idempotents" in out
    assert "PASS  split2: Leibniz rule on all composable basis pairs (5286 pairs)" in out


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
