"""`--json` output keeps its content under `json.loads` while `dumps` lays
it out one record per line, files in the indented layout
(`json.dumps(indent=2, sort_keys=True)`) read as they always did, and the
bytes that cfd-from-cfk, pair --box and satellite print are pinned by their
SHA-256 on the CFK fixtures and on torus-knot staircases, as are those of
diagram-kernel on the diagram fixtures and seeded diagrams, and those of
`scripts/duality_experiment.py 1 200`."""

import hashlib
import json
import random
import sys

import pytest

from bdecat import serialize
from bdecat.pmc import split_pmc, torus_pmc
from scripts.duality_experiment import random_diagram
from tests.conftest import CFK_NAMES, DIAGRAM_NAMES, PATTERN_NAMES, fixture_path
from bdecat.cfk2cfd import CFKComplex
from tests import test_cfk2cfd
from tests.test_cfk2cfd import _random_staircase
from tests.helpers import cfk_to_json, diagram_to_json, isotropic_diagram
from tests.test_cli import invoke


def indented_dumps(data) -> str:
    """The text every `--json` output had before the record-per-line layout."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _json_commands():
    yield ["algebra", "--pmc", "torus", "--gradings", "--json"]
    yield ["algebra", "--pmc", "split2", "--summand", "1", "--json"]
    yield ["check", "--selftest", "--json"]
    yield ["check", "--sign-report", "--pmc", "split2", "--json"]
    for name in PATTERN_NAMES + ["typed_triangle"]:
        yield ["k0", fixture_path(name), "--json"]
    for pattern in PATTERN_NAMES:
        yield ["pair", fixture_path(pattern), fixture_path("typed_triangle"), "--box",
               "--json"]
        for cfk in CFK_NAMES:
            yield ["satellite", fixture_path(pattern), fixture_path(cfk), "--json"]
    for name in CFK_NAMES:
        yield ["cfd-from-cfk", fixture_path(name), "--json"]
    for name in DIAGRAM_NAMES:
        yield ["diagram-kernel", fixture_path(name), "--json"]


@pytest.mark.parametrize("argv", list(_json_commands()),
                         ids=lambda argv: "-".join(a.rsplit("/", 1)[-1].removesuffix(".json")
                                                   .lstrip("-") for a in argv))
def test_json_output_reads_as_the_indented_text(capsys, monkeypatch, argv):
    code, out, err = invoke(capsys, *argv)
    monkeypatch.setattr(serialize, "dumps", indented_dumps)
    code_before, out_before, err_before = invoke(capsys, *argv)
    assert (code, err) == (code_before, err_before)
    assert json.loads(out) == json.loads(out_before)
    assert len(out) <= len(out_before)


def _staircase(name):
    """CFK JSON of a shipped staircase, or of a random one with n steps."""
    if name.startswith("random"):
        rng = random.Random(13)
        return cfk_to_json(_random_staircase(rng, int(name[len("random"):])))
    return serialize.load_file(fixture_path(name))


@pytest.mark.parametrize("name", ["cfk_trefoil_right", "cfk_trefoil_left", "cfk_torus34",
                                  "random4", "random7"])
def test_indented_cfd_files_read_the_same(capsys, tmp_path, name):
    (tmp_path / "cfk.json").write_text(json.dumps(_staircase(name)))
    code, text, _ = invoke(capsys, "cfd-from-cfk", str(tmp_path / "cfk.json"), "--json")
    assert code == 0
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(text)
    old.write_text(indented_dumps(json.loads(text)))
    assert new.read_text() != old.read_text()
    for argv in (["k0", "{}"], ["k0", "{}", "--json"],
                 ["pair", fixture_path("cfa_with_ops"), "{}", "--box"],
                 ["pair", fixture_path("cfa_winding2"), "{}", "--box", "--weight", "2",
                  "--json"]):
        outputs = [invoke(capsys, *(a.format(path) for a in argv)) for path in (new, old)]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


def _torus_knot(p, q, mirror):
    """CFK^- of T(p,q), or of its mirror: the staircase whose step lengths are
    the gaps between the exponents of its Alexander polynomial, which is
    (1 - t) times the sum of t^s over the semigroup of p and q, cut at 2g."""
    semigroup = {a * p + b * q for a in range(q) for b in range(p)}
    exps = [e for e in range((p - 1) * (q - 1), -1, -1)
            if (e in semigroup) != (e - 1 in semigroup)]
    hs = [hi - lo for hi, lo in zip(exps[::2], exps[1::2])]
    cfk = CFKComplex(*test_cfk2cfd._staircase(hs), sum(hs))
    return test_cfk2cfd._mirror(cfk) if mirror else cfk


KNOTS = {"T(4,25)": (4, 25, False), "T(13,89) mirror": (13, 89, True),
         "T(8,13)": (8, 13, False), "T(3,37) mirror": (3, 37, True)}

# SHA-256 of the --json output of cfd-from-cfk, pair --box (at the pattern's
# winding) and satellite, recorded before the type D round trip was made
# cheaper.  T(8,13) and T(3,37) have 180-220 CFD generators, T(4,25) 181 and
# T(13,89) 2687.
PINNED = {
    ("cfk_unknot", "cfa_core"): (
        "e39c42a0ef17bdc5676c4637af8265b12877bb9a7e20a59f7e22807e385f9731",
        "44edc09a4111da3fe20b3a5052ab6e8a19c9bb6e646ad3d87522b0d34b32fdf5",
        "fb7368d971796127bcbfa9699dd7064a23c573fa019524ed9e1462f934f02f81",
    ),
    ("cfk_trefoil_right", "cfa_with_ops"): (
        "811e1f3d936e3eb6a5fe104c7177fabb4e883f64f501b0d3c54f8025288a519c",
        "2c25c08e59f93973916b0487aae95e5851f39399603e3c5af3793cb6e2d79f1a",
        "e46603d0eec0e22467a54a3c5fd5e8b8cc0bc87c0a25316c2cc7d09c4534a80c",
    ),
    ("cfk_trefoil_left", "cfa_trefoil_pattern"): (
        "03dccca9307f809a741ebdaa1fb2e270643a9d61bfcc84731ccceae8407ca708",
        "cb289fb40800537df02da55e28a2c1953e8629d0ffe0c1766f2d9c5461310c0f",
        "3be5cf85b0d53fa2ba6a8e78e58188b06ca827a9637ed2c651da40eb065d7ee9",
    ),
    ("cfk_figure8", "cfa_winding2"): (
        "477eff65fc7a7681a2d05f54710f32e1ebc48e01cdea50c253d1e23942b8d55f",
        "9f2e4f9ca118a0b031123b391910f035d4faf266d10c7edc00221af5cff01fad",
        "876ac9c0b64a534cc632df66b45540d1a585b6bd716d2a0851451289f453b3b5",
    ),
    ("cfk_torus34", "cfa_with_ops"): (
        "c0ba2e315b9c423525456d888e88a8847e7eb95cca6a42dae577885e2ed5cd73",
        "7c379f8bdab035be092e9b2e78d074b3c58e5d66a53ecf8664d814d3d50b6c00",
        "36ee73a1c34c7129f7c227ae6303dc3a10907d8f5dc8c8c71caf92af6bb216dc",
    ),
    ("cfk_cable2m1_left_trefoil", "cfa_trefoil_pattern"): (
        "36d70ae70156c8cdd63472cfa9b67497f650f015650503252fe05f0715cda790",
        "7c379f8bdab035be092e9b2e78d074b3c58e5d66a53ecf8664d814d3d50b6c00",
        "e7f248a999b333e9ab7b7e602330dbf28071cfa9339ea88efec418035171b023",
    ),
    ("T(4,25)", "cfa_with_ops"): (
        "8b025605f1ffbf4262104ad8c19347ae87cab51a61bfee9ce7da681afe8cfc87",
        "f865428fb5a3cb473059d2568b28005e8718f30d81333a9e03527c7351fa0c4e",
        "cc9b1728357b7e20e8d08b9e26316149da0f15140cafb3dd29de82bdb8ddcb8c",
    ),
    ("T(13,89) mirror", "cfa_trefoil_pattern"): (
        "4e8d417b599e700f39732f90a44971513dba136bdc9d1e629fe9f8c3eb4ca072",
        "0635a021ef5629c85bcb2ccd2aa197d549fe0ce318416164b44f4d38bd7e83cf",
        "8f2dc0efb6423951590c66cf7a8c7c2d6d29688595da9a3b05f016477eedfc20",
    ),
    ("T(8,13)", "cfa_winding2"): (
        "873d05829506a73751bc30df524a6201270597712206542c00a22358959753dc",
        "d045b10c7c5795a9abc944625cafe711f88911bc9818c24d4439ba5adc2f71b5",
        "93667f7430edf756fafcc50259bcec35780a758c93303a129d247284d37a75fd",
    ),
    ("T(3,37) mirror", "cfa_core"): (
        "9d786a0fda20865a01c0e9135c38f783bacdd0e2dafd3d11daa5475817b494d6",
        "77e78b84d4494fc0d34ce72592b0a106f65bbd4298a6ab888a47da96d768944e",
        "0eaafb253d617787c62fc24874fe0fef26bc18dbe0946db4d83e137bbb53df23",
    ),
}


@pytest.mark.parametrize("knot, pattern", sorted(PINNED))
def test_json_output_bytes_are_pinned(capsys, tmp_path, knot, pattern):
    if knot in KNOTS:
        cfk = tmp_path / "cfk.json"
        cfk.write_text(json.dumps(cfk_to_json(_torus_knot(*KNOTS[knot]))))
    else:
        cfk = fixture_path(knot)
    cfd, pattern_path = tmp_path / "cfd.json", fixture_path(pattern)
    winding = serialize.load_file(pattern_path).get("winding", 1)
    outputs = []
    for argv in (["cfd-from-cfk", str(cfk), "--json"],
                 ["pair", pattern_path, str(cfd), "--box", "--weight", str(winding), "--json"],
                 ["satellite", pattern_path, str(cfk), "--json"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "cfd-from-cfk":
            cfd.write_text(out)
        outputs.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(outputs) == PINNED[knot, pattern]


# diagram-kernel, text and --json: the 8 diagram fixtures, and per circle
# five seeded random diagrams (genus k to k + 4, `random_diagram` of the
# duality experiment) and three isotropic ones (genus k to k + 2), whose
# outputs are hashed together.  Many random diagrams break the kernel
# theorem, so the pinned bytes hold verdict lines on stderr as well as
# reports.
DIAGRAM_PINNED = {
    "diag_antipodal_g2": (
        "8327722458021a04638d172b0ed725af44d7a5120131f27589466bc082dbc3c9",
        "e39f7abeb6cbc189a6963523e5faba01894644b396343e517f7e8f938ada13b2",
    ),
    "diag_handlebody_g2_a": (
        "08583294092d7b0d2f3448b329a75841abe2cad86089cd7921e185d72aaeb639",
        "23446228df9746aecc10770d3f54d7064086433d5005af678a9e47b5761d4fea",
    ),
    "diag_handlebody_g2_b": (
        "4813ec5acad1c1fa7581954b13c2202b80668b7074c99abde5e62487269c42f4",
        "bd3735507a5676c9e08f934bbd43f58d18bfec0f438e6f22bc54caa47c83a839",
    ),
    "diag_rank_deficient": (
        "07c710715865ca0fee0c602b217e68ea55fb96c11924b3380316adef4639fd61",
        "37a9eefa1a78ee51f6738f6552fdd9909ad36eccd89194da945936e6ff3ca59b",
    ),
    "diag_solid_torus": (
        "34a724fce9920108a95caca871f68da0f97d7743f83602b2f1240d24a566d0ee",
        "d5192fdf38f4c9044fc4db8793d7bec04b7a62061418616e80b2198df94d28c5",
    ),
    "diag_solid_torus_slope1": (
        "ccc362c00bc35ae46a5a08eeef76844ad8f2c7412a945f3022f7e7f5763fe146",
        "9dc293444a4e3077c429652380930e13b47ce196f55228e9a41c3ddc1b7ec8d3",
    ),
    "diag_twisted_p2": (
        "f990e20ccc9fbd43df7f8c4abc92e3070727d86a160aba40b5fe10cffd747119",
        "8ce14af75cb28273a9f8f62d0eacb9367f6aab71db1b4708634750030983cf0a",
    ),
    "diag_twisted_p3": (
        "3a7396af6875230364f1c5cc4effed4815cdcbafa0186f0e4f32e6b0ef917553",
        "f98798e849e806e118fbdc6b5bb7af7f10bb98b863909c45569e350f4a8672cd",
    ),
    "split2": (
        "d1a28218c84dba0e2142138999a6fca63bd857d8d072f7dfc0f10c04158aa49b",
        "c44797d2651f2965198cb029de0047dc8ed2d52774dae646c384853f447ead29",
    ),
    "split3": (
        "455145f0e99bd7f0fde74d5998af9bceacb16d789e7c32c0ce81e608f0db1694",
        "0eb934efce10b82af93f864c250e3cd57eb4b19318797c4ccabbc06e9f9ea3b2",
    ),
    "torus": (
        "7dc454eb589fce50aeda0e37de382b9511342140adf1b9ac54f89c11b64ecda9",
        "32291cd44eff40b13467dee41b004669a3a8321cfdaf7bdee961f068fc0db3c2",
    ),
}


def _diagram_kernel_files(tmp_path, name):
    """The diagram files of one pinned case: a fixture, or the seeded
    diagrams over torus, split2 or split3."""
    if name in DIAGRAM_NAMES:
        return [fixture_path(name)]
    pmc = torus_pmc() if name == "torus" else split_pmc(int(name[-1]))
    rng = random.Random(f"diagram-kernel-{name}")
    diagrams = [random_diagram(rng, pmc, rng.randint(pmc.genus, pmc.genus + 4))
                for _ in range(5)]
    diagrams += [isotropic_diagram(rng, pmc, rng.randint(pmc.genus, pmc.genus + 2))
                 for _ in range(3)]
    paths = []
    for i, d in enumerate(diagrams):
        paths.append(tmp_path / f"{name}_{i}.json")
        paths[-1].write_text(json.dumps(diagram_to_json(d)))
    return [str(p) for p in paths]


@pytest.mark.parametrize("name", sorted(DIAGRAM_PINNED))
def test_diagram_kernel_bytes_are_pinned(capsys, tmp_path, name):
    digests = []
    for flags in ((), ("--json",)):
        h = hashlib.sha256()
        for path in _diagram_kernel_files(tmp_path, name):
            code, out, err = invoke(capsys, "diagram-kernel", path, *flags)
            h.update(f"{code}\n{out}\n{err}\n".encode())
        digests.append(h.hexdigest())
    assert tuple(digests) == DIAGRAM_PINNED[name]


# SHA-256 of the stdout of `scripts/duality_experiment.py 1 200`.
DUALITY_EXPERIMENT_PINNED = (
    "17d65759758e605c9b319ff588b06cbdae637428701321e9eeeaadad8dfc22bd")


def test_duality_experiment_output_is_pinned(capsys, monkeypatch):
    from scripts import duality_experiment
    monkeypatch.setattr(sys, "argv", ["duality_experiment.py", "1", "200"])
    assert duality_experiment.main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUALITY_EXPERIMENT_PINNED
