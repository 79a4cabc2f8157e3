"""`--json` output keeps its content under `json.loads` while `dumps` lays
it out one record per line, and files in the indented layout
(`json.dumps(indent=2, sort_keys=True)`) read as they always did."""

import json
import random

import pytest

from bdecat import serialize
from tests.conftest import CFK_NAMES, DIAGRAM_NAMES, PATTERN_NAMES, fixture_path
from tests.test_cfk2cfd import _random_staircase
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
        return serialize.cfk_to_json(_random_staircase(rng, int(name[len("random"):])))
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
