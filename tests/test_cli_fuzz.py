"""The exit-code contract under bad input: every CLI run on a mutated shipped
fixture exits 0 (verified), 1 (a theorem check failed, and stderr says so)
or 2 (bad input, and stderr says `error:`), and no exception escapes
`cli.run`.  A file cut short so that it is no longer JSON, or nested too
deeply for the JSON parser, is named on the error line."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from bdecat import serialize
from bdecat.cli import run
from tests.conftest import FIXTURES, fixture_path

NAMES = sorted(f[:-len(".json")] for f in os.listdir(FIXTURES) if f.endswith(".json"))

# No larger circle name may come in: any split3 module builds the 12 448-element
# split3 basis (about 0.4 s) and its labels (0.17 s) before it is checked.
JUNK = [None, "", [], {}, "rho(1)", "rho(3,1)", -2, -1, 0, 1, 2, 3]


def command(kind, path):
    """The subcommand that consumes a fixture of this kind."""
    return {"typed": ["pair", fixture_path("cfa_with_ops"), path, "--box"],
            "pattern": ["satellite", path, fixture_path("cfk_trefoil_right")],
            "cfk": ["cfd-from-cfk", path],
            "diagram": ["diagram-kernel", path]}[kind]


def nodes(value, path=()):
    """(path, value) for the value and everything nested in it."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from nodes(child, path + (key,))


def at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mutated_fixtures(draw):
    name = draw(st.sampled_from(NAMES))
    data = serialize.load_file(fixture_path(name))
    kind = serialize.sniff_kind(data)
    everything = list(nodes(data))
    if draw(st.booleans()):
        path, d = draw(st.sampled_from([(p, v) for p, v in everything
                                        if isinstance(v, dict) and v]))
        del at(data, path)[draw(st.sampled_from(sorted(d)))]
    else:
        leaves = [(p, v) for p, v in everything
                  if p and not isinstance(v, (dict, list))]
        path, _ = draw(st.sampled_from(leaves))
        at(data, path[:-1])[path[-1]] = draw(
            st.sampled_from(JUNK + [v for _, v in leaves]))
    text = json.dumps(data)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text) - 1))]
    return kind, text


def _flipped_m():
    """typed_triangle with the m of x1 flipped: it fails its structure check."""
    data = serialize.load_file(fixture_path("typed_triangle"))
    data["generators"][0]["m"] = 1 - data["generators"][0]["m"]
    return json.dumps(data)


def _is_json(text) -> bool:
    try:
        json.loads(text)
    except (ValueError, RecursionError):
        return False
    return True


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fixture=mutated_fixtures(), check=st.booleans())
@example(fixture=("typed", "{not json"), check=False)
@example(fixture=("typed", _flipped_m()), check=False)
@example(fixture=("typed", "[" * 100_000 + "]" * 100_000), check=False)
def test_mutated_fixtures_keep_the_exit_code_contract(workdir, fixture, check):
    kind, text = fixture
    path = workdir / "mutated.json"
    path.write_text(text)
    argv = ["check", str(path)] if check else command(kind, str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("verification failed: "), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    if not _is_json(text):
        assert code == 2 and err.getvalue().startswith(f"error: {path}: "), err.getvalue()
