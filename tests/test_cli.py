import json
import os
import subprocess
import sys

import pytest

import bdecat.cfk2cfd as cfk2cfd
import bdecat.cli as cli
import bdecat.diagram as diagram
import bdecat.dmodules as dmodules
import bdecat.grothendieck as grothendieck
import bdecat.satellite as satellite
from bdecat import serialize
from bdecat.cli import run
from tests.conftest import CFK_NAMES, PATTERN_NAMES, fixture_path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_torus_gradings(capsys):
    code, out, _ = invoke(capsys, "algebra", "--pmc", "torus",
                          "--summand", "0", "--gradings")
    assert code == 0
    assert "dimension 8" in out
    assert out.count("m=") == 8


def test_algebra_json(capsys):
    code, out, _ = invoke(capsys, "algebra", "--pmc", "torus", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 8


def test_k0_triangle(capsys):
    code, out, _ = invoke(capsys, "k0", fixture_path("typed_triangle"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == {"1": [["1/2", -1]]}


def test_satellite_ok(capsys):
    code, out, _ = invoke(capsys, "satellite", fixture_path("cfa_core"),
                          fixture_path("cfk_trefoil_right"), "--winding", "1")
    assert code == 0
    assert "verdict: OK" in out
    assert "t - 1 + t^-1" in out


def test_satellite_json(capsys):
    code, out, _ = invoke(capsys, "satellite", fixture_path("cfa_winding2"),
                          fixture_path("cfk_trefoil_right"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["winding"] == 2
    assert data["satellite"] == [["-2", 1], ["0", -1], ["2", 1]]
    assert data["verdict"] == "OK"


def test_cfd_from_cfk(capsys):
    code, out, _ = invoke(capsys, "cfd-from-cfk",
                          fixture_path("cfk_figure8"), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 9
    assert data["bounded"] is False
    assert data["alexander_polynomial"] == [["-1", -1], ["0", 3], ["1", -1]]


def test_diagram_kernel(capsys):
    code, out, _ = invoke(capsys, "diagram-kernel",
                          fixture_path("diag_twisted_p3"))
    assert code == 0
    assert "|H1(Y, dY)| = 3" in out
    assert "verdict: OK" in out


def test_diagram_kernel_over_a_non_split_circle(capsys):
    """The antipodal genus-2 circle, where every two cores meet: the kernel
    a1, a2 - a3 is read in that circle's own intersection form."""
    code, out, err = invoke(capsys, "diagram-kernel",
                            fixture_path("diag_antipodal_g2"))
    assert code == 0, err
    assert "kernel wedge = (1)*a{1,2} + (-1)*a{1,3}" in out
    assert "verdict: OK" in out


def test_pair_box(capsys):
    code, out, _ = invoke(capsys, "pair", fixture_path("cfa_with_ops"),
                          fixture_path("typed_triangle"), "--box", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["pairing"] == data["euler"]


def test_pair_box_keeps_box_generators_whose_names_coincide(capsys, tmp_path):
    """p box (q*r) and (p*q) box r are both named p*q*r; the complex keeps
    both, so chi equals the pairing."""
    def gens(*items):
        return [{"name": n, "idem": [1], "m": 0, "a": a} for n, a in items]
    pattern, typed = tmp_path / "pat.json", tmp_path / "typed.json"
    pattern.write_text(json.dumps({"pmc": "torus", "winding": 1, "ops": [],
                                   "generators": gens(("p", "0"), ("p*q", "0"))}))
    typed.write_text(json.dumps({"pmc": "torus", "delta": [],
                                 "generators": gens(("q*r", "0"), ("r", "1"))}))
    code, out, err = invoke(capsys, "pair", str(pattern), str(typed), "--box")
    assert (code, err) == (0, ""), out
    assert "chi(M box N)       = 2*t + 2" in out and "verdict: OK" in out


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
def test_pair_box_at_weight_zero(capsys, tmp_path, pattern):
    """At weight 0 the pairing reads N's class at t = 1, as chi does."""
    for cfk in CFK_NAMES:
        _, out, _ = invoke(capsys, "cfd-from-cfk", fixture_path(cfk), "--json")
        path = tmp_path / f"{cfk}.json"
        path.write_text(out)
        code, out, err = invoke(capsys, "pair", fixture_path(pattern), str(path),
                                "--box", "--weight", "0")
        assert (code, err) == (0, ""), (cfk, out)
        assert "verdict: OK" in out


def _one_generator(tmp_path, name, pmc, idem, **fields):
    """A module file over pmc with one generator x of idempotent idem."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"pmc": pmc, **fields, "generators": [
        {"name": "x", "idem": idem, "m": 0, "a": "0"}]}))
    return str(path)


@pytest.mark.parametrize("box", [(), ("--box",)], ids=["class", "box"])
@pytest.mark.parametrize("pattern", ["genus2", "torus"])
def test_pair_rejects_modules_over_different_circles(capsys, tmp_path, pattern, box):
    """The class pairing compares the circles first, as the box tensor does:
    a genus-2 pattern over another circle than split2's paired to 1, and a
    torus pattern failed on the genera (error: 1 vs 2)."""
    cfa = (_one_generator(tmp_path, "cfa", {"matching": [1, 2, 3, 4, 1, 2, 3, 4]},
                          [1, 2], ops=[], winding=1)
           if pattern == "genus2" else fixture_path("cfa_core"))
    cfd = _one_generator(tmp_path, "cfd", "split2", [1, 2], delta=[])
    assert invoke(capsys, "pair", cfa, cfd, *box) == (
        2, "", "error: modules over different pointed matched circles\n")


def test_satellite_rejects_a_pattern_not_over_the_torus(capsys, tmp_path):
    cfa = _one_generator(tmp_path, "cfa", "split2", [1, 2], ops=[], winding=1)
    assert invoke(capsys, "satellite", cfa, fixture_path("cfk_trefoil_right")) == (
        2, "", f"error: {cfa}: module is not over the torus algebra\n")


def test_check_fixture(capsys):
    code, out, _ = invoke(capsys, "check", fixture_path("cfk_torus34"))
    assert code == 0
    assert "valid cfk fixture" in out


def test_sign_report_values(capsys):
    expected = {"torus": (8, 18, 0, 6), "split2": (238, 1917, 70, 232)}
    for pmc, (size, products, differentials, gauge) in expected.items():
        code, out, _ = invoke(capsys, "check", "--sign-report", "--pmc", pmc, "--json")
        assert code == 0
        assert json.loads(out) == {
            "basis_size": size, "idempotents_positive": True,
            "product_relations_checked": products,
            "differential_relations_checked": differentials,
            "relation_failures": [], "gauge_elements": gauge}


def test_selftest_json_verdict(capsys):
    code, out, _ = invoke(capsys, "check", "--selftest", "--json")
    assert code == 0
    assert json.loads(out) == {"failures": [], "verdict": "OK"}


def test_verification_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad_diagram.json"
    bad.write_text(json.dumps({
        "pmc": "split2", "genus": 2, "alpha_circles": 0,
        "points": [{"alpha": "arc:1", "beta": 1, "sign": 1},
                   {"alpha": "arc:3", "beta": 1, "sign": 1},
                   {"alpha": "arc:2", "beta": 2, "sign": 1}]}))
    code, _, err = invoke(capsys, "diagram-kernel", str(bad))
    assert code == 1
    assert "verification failed" in err


def _fixture_with(tmp_path, name, edit):
    """A copy of a shipped fixture with edit applied to its parsed JSON."""
    data = serialize.load_file(fixture_path(name))
    data = edit(data) or data
    path = tmp_path / f"{name}_edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_input_error_exit_codes(capsys, tmp_path):
    code, _, err = invoke(capsys, "k0", str(tmp_path / "missing.json"))
    assert code == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _, _ = invoke(capsys, "k0", str(garbage))
    assert code == 2
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2

    triangle, trefoil = fixture_path("typed_triangle"), fixture_path("cfk_trefoil_right")
    cases = [
        ["pair", triangle, triangle],
        ["check", _fixture_with(tmp_path, "cfa_with_ops",
                                lambda d: d["ops"][0].update(algs=["rho(1)"]))],
        ["check", "--kind", "cfk", _fixture_with(tmp_path, "cfk_unknot",
                                                 lambda d: [d])],
        ["cfd-from-cfk", _fixture_with(tmp_path, "cfk_figure8",
                                       lambda d: d.update(generators=5))],
        ["k0", _fixture_with(tmp_path, "typed_triangle",
                             lambda d: d["generators"][0].update(idem=5))],
        ["k0", _fixture_with(tmp_path, "cfa_core",
                             lambda d: d["generators"][0].update(m=None))],
        ["satellite", fixture_path("cfa_core"), trefoil, "--winding", "-1"],
        # generator "b" renamed to the integer 3 everywhere
        ["cfd-from-cfk", "--json", _fixture_with(
            tmp_path, "cfk_trefoil_right",
            lambda d: json.loads(json.dumps(d).replace('"b"', "3")))],
        # a bordered diagram of genus below its boundary's
        ["diagram-kernel", _fixture_with(
            tmp_path, "diag_solid_torus",
            lambda d: d.update(genus=0, alpha_circles=-1, points=[]))],
    ]
    for argv in cases:
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    # bytes that are not UTF-8, text that is not JSON, a failed structure
    # check (one m flipped in the type D file) and a CFK calibration that
    # CFKComplex rejects as the file is read (tau raised by 5) name the
    # file, also when the command reads two
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe{\x00}\x00")
    flipped = _fixture_with(tmp_path, "typed_triangle",
                            lambda d: d["generators"][0].update(m=1 - d["generators"][0]["m"]))
    unstable = _fixture_with(tmp_path, "cfk_trefoil_right",
                             lambda d: d.update(tau=d["tau"] + 5))
    unstable_line = f"error: {unstable}: unstable chain: a(xi_h) != a(xi_v) - 2 tau\n"
    named = [
        (["pair", str(binary), triangle],
         f"error: {binary}: 'utf-8' codec can't decode byte 0xff in position 0"),
        (["pair", str(garbage), triangle],
         f"error: {garbage}: Expecting property name enclosed in double quotes"),
        (["pair", fixture_path("cfa_with_ops"), flipped],
         f"error: {flipped}: x1->x2: m(x1)=0 but m(coeff)+m(x2)+1=1\n"),
        (["cfd-from-cfk", unstable], unstable_line),
        (["satellite", fixture_path("cfa_core"), unstable], unstable_line),
        (["check", unstable], unstable_line),
    ]
    for argv, line in named:
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(line) and err.count("\n") == 1, (argv, err)


def test_loader_errors_name_the_file(capsys, tmp_path):
    cfd = _fixture_with(tmp_path, "typed_triangle",
                        lambda d: d["delta"][0].update(coeff="rho(1)"))
    code, _, err = invoke(capsys, "pair", fixture_path("cfa_core"), cfd)
    assert code == 2
    assert err.startswith(f"error: {cfd}: bad chord '1'"), err


def test_mis_graded_ainf_op_is_rejected(capsys, tmp_path):
    """m(u) flipped in cfa_with_ops breaks m2(w, rho2) = u's grading: both
    commands name the file, where the box complex used to be blamed."""
    flipped = _fixture_with(tmp_path, "cfa_with_ops",
                            lambda d: d["generators"][0].update(m=1))
    line = (f"error: {flipped}: op m2: w -> u (basis indices (5,)): "
            "m(u)=1 but m(w)+m(inputs)+0=0\n")
    for argv in (["check", flipped],
                 ["pair", flipped, fixture_path("typed_triangle"), "--box"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", line), argv


def test_repeated_delta_edge_is_rejected(capsys, tmp_path):
    """Two copies of an edge would cancel over F2 in check_type_d and
    box_tensor while is_bounded still counted it, so a repeat is bad input."""
    doubled = _fixture_with(tmp_path, "typed_triangle",
                            lambda d: d["delta"].append(dict(d["delta"][0])))
    for argv in (["check", doubled],
                 ["pair", fixture_path("cfa_with_ops"), doubled, "--box"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {doubled}: repeated delta edge x1->x2 ") \
            and err.count("\n") == 1, (argv, err)


def test_repeated_ainf_op_is_rejected(capsys, tmp_path):
    """Two copies of an op would cancel over F2, so `check` and `pair --box`
    would run on a module without it; a repeat is bad input."""
    doubled = _fixture_with(tmp_path, "cfa_with_ops",
                            lambda d: d["ops"].append(dict(d["ops"][0])))
    for argv in (["check", doubled],
                 ["pair", doubled, fixture_path("typed_triangle"), "--box"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {doubled}: repeated op m2: w -> u ") \
            and err.count("\n") == 1, (argv, err)


def test_repeated_idem_entry_is_rejected(capsys, tmp_path):
    """"idem": [2, 2] would read as {2}, a valid torus idempotent."""
    doubled = _fixture_with(tmp_path, "typed_triangle",
                            lambda d: d["generators"][0].update(idem=[2, 2]))
    code, out, err = invoke(capsys, "check", doubled)
    assert code == 2 and out == ""
    assert err == f"error: {doubled}: x1: repeated idem entry in [2, 2]\n"


def _set(index, **fields):
    """An edit setting fields of the generator at index."""
    return lambda d: d["generators"][index].update(fields)


def _repeat(key):
    """An edit appending a copy of the first delta edge or op."""
    return lambda d: d[key].append(dict(d[key][0]))


def _edits(*edits):
    """An edit making each of edits in turn."""
    def edit(d):
        for e in edits:
            e(d)
    return edit


# typed_triangle has x1 at [2], x2 at [1] and x3 at [2], and the edges
# x1 -rho2-> x2, x1 -1-> x3, x2 -rho1-> x3.
MALFORMED_CFD = {
    "boolean idem entry": (_set(0, idem=[True]), "idem entry must be an integer, got True"),
    "boolean idem entry after an equal integer one": (
        _set(2, idem=[True]), "idem entry must be an integer, got True"),
    "float idem entry after an equal integer one": (
        _set(2, idem=[2.0]), "idem entry must be an integer, got 2.0"),
    "repeated idem entry": (_set(0, idem=[2, 2]), "x1: repeated idem entry in [2, 2]"),
    "m as a float": (_set(0, m=1.0), "m must be an integer, got 1.0"),
    "non-string name": (_set(0, name=3), "generator name must be a string, got 3"),
    "duplicate generator name": (lambda d: d["generators"].append(dict(d["generators"][0])),
                                 "duplicate generator name x1"),
    "list as coeff": (lambda d: d["delta"][0].update(coeff=["rho2"]),
                      "coefficient must be a string, got ['rho2']"),
    "repeated delta edge": (_repeat("delta"), "repeated delta edge x1->x2 (basis index 5)"),
    "coefficient that does not fit the idempotents": (
        lambda d: d["delta"][0].update(coeff="rho1"),
        "coefficient 'rho1' vanishes between {2} and {1}"),
    "coefficient read on an earlier edge that does not fit a later one": (
        lambda d: d["delta"][2].update(coeff="rho2"),
        "coefficient 'rho2' vanishes between {1} and {2}"),
    "a as 1/3": (_set(0, a="1/3"), "not a half-integer: '1/3'"),
    # a faulty generator is named before the coefficients that meet it
    "copy of x3 at an idempotent outside [2k]": (
        lambda d: d["generators"].append(dict(d["generators"][2], idem=[3])),
        "duplicate generator name x3"),
    "x1 at an idempotent outside [2k]": (_set(0, idem=[3]), "x1: idempotent outside [2k]"),
    "delta edge from an unknown generator": (
        lambda d: d["delta"].append({"coeff": "1", "dst": "x1", "src": "nope"}),
        "delta edge nope->x1: unknown generator nope"),
    "delta edge to an unknown generator": (
        lambda d: d["delta"].append({"coeff": "1", "dst": "nope", "src": "x1"}),
        "delta edge x1->nope: unknown generator nope"),
    # two faults: a generator first, then edges in file order, then repeats
    "x1 outside [2k] with a repeated edge": (
        _edits(_set(0, idem=[3]), _repeat("delta")), "x1: idempotent outside [2k]"),
    "duplicate generator name with a repeated edge": (
        _edits(lambda d: d["generators"].append(dict(d["generators"][0])), _repeat("delta")),
        "duplicate generator name x1"),
    "repeated edge followed by an unknown generator": (
        _edits(_repeat("delta"),
               lambda d: d["delta"].append({"coeff": "1", "dst": "nope", "src": "x1"})),
        "delta edge x1->nope: unknown generator nope"),
    "repeated edge followed by a coefficient that does not fit": (
        _edits(_repeat("delta"),
               lambda d: d["delta"].append({"coeff": "rho1", "dst": "x2", "src": "x1"})),
        "coefficient 'rho1' vanishes between {2} and {1}"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CFD))
def test_malformed_cfd_messages(capsys, tmp_path, case):
    """Each distinct coefficient and idem list is read once per file; a
    malformed value still gets the message it got when every one was read
    where it occurs, from both commands that read a type D file."""
    edit, message = MALFORMED_CFD[case]
    path = _fixture_with(tmp_path, "typed_triangle", edit)
    for argv in (["check", path],
                 ["pair", fixture_path("cfa_with_ops"), path, "--box"]):
        assert invoke(capsys, *argv) == (2, "", f"error: {path}: {message}\n"), argv


# cfa_with_ops has u at [1] and w at [2], and the op m2(w, rho2) = u.
MALFORMED_CFA = {
    "copy of w at an idempotent outside [2k]": (
        lambda d: d["generators"].append(dict(d["generators"][1], idem=[3])),
        "duplicate generator name w"),
    "w at an idempotent outside [2k]": (_set(1, idem=[3]), "w: idempotent outside [2k]"),
    "op from an unknown generator": (
        lambda d: d["ops"].append({"algs": ["rho2"], "x": "nope", "y": "u"}),
        "op nope -> u: unknown generator nope"),
    "op to an unknown generator": (
        lambda d: d["ops"].append({"algs": ["rho2"], "x": "w", "y": "nope"}),
        "op w -> nope: unknown generator nope"),
    # two faults: a generator first, then ops in file order, then repeats
    "w outside [2k] with a repeated op": (
        _edits(_set(1, idem=[3]), _repeat("ops")), "w: idempotent outside [2k]"),
    "repeated op followed by an unknown generator": (
        _edits(_repeat("ops"),
               lambda d: d["ops"].append({"algs": ["rho2"], "x": "nope", "y": "u"})),
        "op nope -> u: unknown generator nope"),
    "repeated op followed by an input that does not chain": (
        _edits(_repeat("ops"),
               lambda d: d["ops"].append({"algs": ["rho1"], "x": "w", "y": "u"})),
        "operation input 'rho1' incompatible with idempotent chain"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CFA))
def test_malformed_cfa_messages(capsys, tmp_path, case):
    """The A-infinity reader, like the type D one, names a faulty generator
    before an op input that meets it, and an op endpoint that is no
    generator."""
    edit, message = MALFORMED_CFA[case]
    path = _fixture_with(tmp_path, "cfa_with_ops", edit)
    for argv in (["check", path], ["check", "--kind", "ainf", path],
                 ["pair", path, fixture_path("typed_triangle"), "--box"]):
        assert invoke(capsys, *argv) == (2, "", f"error: {path}: {message}\n"), argv


# (fixture, generator, --kind): one module file of each kind
IDEMPOTENT_HOLDERS = {"typed": ("typed_triangle", 1, "typed"),
                      "ainf": ("cfa_core", 0, "ainf"),
                      "pattern": ("cfa_with_ops", 0, "pattern")}


@pytest.mark.parametrize("kind", sorted(IDEMPOTENT_HOLDERS))
def test_idempotent_outside_2k_is_rejected_as_the_module_is_read(capsys, tmp_path, kind):
    """`class_from_terms` checks no subset; a module's idempotents are
    checked against [2k] as its file is read, before any class is summed."""
    name, index, flag = IDEMPOTENT_HOLDERS[kind]
    path = _fixture_with(tmp_path, name, _set(index, idem=[3]))
    gen = serialize.load_file(path)["generators"][index]["name"]
    line = f"error: {path}: {gen}: idempotent outside [2k]\n"
    for argv in (["check", "--kind", flag, path], ["k0", path]):
        assert invoke(capsys, *argv) == (2, "", line), argv


# diag_solid_torus is genus 1 over the torus with one point, arc:1 on beta 1.
MALFORMED_DIAGRAM = {
    "sign 0": ({"sign": 0}, "point sign must be +1 or -1"),
    "sign true": ({"sign": True}, "sign must be an integer, got True"),
    "bad kind": ({"alpha": "curve:1"}, "bad alpha kind curve"),
    "beta 0": ({"beta": 0}, "beta index 0 out of range"),
    "arc:9": ({"alpha": "arc:9"}, "arc index 9 outside [2k]"),
    "circle:1 with no circle": ({"alpha": "circle:1"}, "circle index 1 out of range"),
    "arc:-1": ({"alpha": "arc:-1"}, "alpha must be 'arc:N' or 'circle:N', got 'arc:-1'"),
    "arc": ({"alpha": "arc"}, "alpha must be 'arc:N' or 'circle:N', got 'arc'"),
    "arc:1.5": ({"alpha": "arc:1.5"}, "alpha must be 'arc:N' or 'circle:N', got 'arc:1.5'"),
    "arc: 1": ({"alpha": "arc: 1"}, "alpha must be 'arc:N' or 'circle:N', got 'arc: 1'"),
    "full-width digit": ({"alpha": "arc:\uff11"},
                         "alpha must be 'arc:N' or 'circle:N', got 'arc:\uff11'"),
    "non-string alpha": ({"alpha": 1}, "alpha must be 'arc:N' or 'circle:N', got 1"),
    # two faults: the genus and the alpha-circle count before any point
    "genus 0 and sign 0": ({"sign": 0}, "genus 0 is below the boundary genus 1",
                           {"genus": 0}),
    "genus 2 and kind curve": ({"alpha": "curve:1"}, "need g - k = 1 alpha-circles, got 0",
                               {"genus": 2}),
    "one alpha-circle and sign -2": ({"sign": -2}, "need g - k = 0 alpha-circles, got 1",
                                     {"alpha_circles": 1}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DIAGRAM))
def test_malformed_diagram_messages(capsys, tmp_path, case):
    """The first point's fields are set, and the diagram's when a third
    entry is given."""
    fields, message, *diagram_fields = MALFORMED_DIAGRAM[case]

    def edit(d):
        d["points"][0].update(fields)
        d.update(*diagram_fields)
    path = _fixture_with(tmp_path, "diag_solid_torus", edit)
    for argv in (["check", path], ["diagram-kernel", path]):
        assert invoke(capsys, *argv) == (2, "", f"error: {path}: {message}\n"), argv


@pytest.mark.parametrize("name", ["typed_triangle", "cfa_with_ops", "cfk_trefoil_right",
                                  "diag_solid_torus"])
def test_files_are_read_as_utf8_whatever_the_locale(name):
    """JSON is UTF-8, so no file is opened with the locale's default
    encoding, which this interpreter turns into an error."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "bdecat.cli", "check", fixture_path(name)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    assert out.stdout.startswith(f"{fixture_path(name)}: valid ")


def test_check_validates_pattern_alexander_weights(capsys, tmp_path):
    bad = _fixture_with(tmp_path, "cfa_with_ops",
                        lambda d: d["generators"][1].update(a="3/2"))
    code, _, err = invoke(capsys, "check", bad)
    assert code == 2
    assert "a(u)=0, expected 1" in err


def test_check_typed_bigrading_at_the_given_framing(capsys, tmp_path):
    code, out, _ = invoke(capsys, "cfd-from-cfk", fixture_path("cfk_trefoil_right"),
                          "--json")
    assert code == 0
    cfd = tmp_path / "cfd.json"
    cfd.write_text(out)
    code, out, _ = invoke(capsys, "check", str(cfd), "--framing", "0")
    assert code == 0 and "valid typed fixture" in out
    code, _, err = invoke(capsys, "check", str(cfd), "--framing", "1")
    assert code == 2 and "a drop" in err


def test_exit_codes_deterministic(capsys):
    first = invoke(capsys, "satellite", fixture_path("cfa_core"),
                   fixture_path("cfk_figure8"), "--json")
    second = invoke(capsys, "satellite", fixture_path("cfa_core"),
                    fixture_path("cfk_figure8"), "--json")
    assert first == second


def test_satellite_builds_the_cfd_once(capsys, monkeypatch):
    builds = []

    def counting_build_cfd(cfk):
        builds.append(cfk)
        return cfk2cfd.build_cfd(cfk)

    monkeypatch.setattr(cli, "build_cfd", counting_build_cfd)
    monkeypatch.setattr(satellite, "build_cfd", counting_build_cfd)
    code, out, _ = invoke(capsys, "satellite", fixture_path("cfa_trefoil_pattern"),
                          fixture_path("cfk_figure8"), "--json")
    assert code == 0
    assert len(builds) == 1
    poly = [["-2", -1], ["-1", 4], ["0", -5], ["1", 4], ["2", -1]]
    assert out == serialize.dumps({
        "Delta_K": [["-1", -1], ["0", 3], ["1", -1]],
        "P": [],
        "Q": [["-1", 1], ["0", -1], ["1", 1]],
        "normalization": "symmetric representative with q(1) >= 0",
        "pairing": poly,
        "satellite": poly,
        "symmetric": True,
        "verdict": "OK",
        "winding": 1,
    })


COUNTED = {"build_cfd": cfk2cfd.build_cfd, "verify_a1": cfk2cfd.verify_a1,
           "verify_a2_zero": cfk2cfd.verify_a2_zero, "decompose": satellite.decompose,
           "check_type_d": dmodules.check_type_d, "check_ainf": dmodules.check_ainf,
           "enumerated_class": diagram.enumerated_class,
           "enumerate_generators": diagram.enumerate_generators,
           "class_from_terms": grothendieck.class_from_terms}


def _count_calls(monkeypatch):
    """Wrap every COUNTED function wherever a bdecat module refers to it;
    return the call counts, filled in as the wrappers run."""
    counts = dict.fromkeys(COUNTED, 0)
    modules = [m for n, m in sys.modules.items() if n.startswith("bdecat")]
    for name, fn in COUNTED.items():
        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return counts


@pytest.mark.parametrize("argv, expected", [
    # a built CFD holds the structure checks by construction, so only the
    # pattern is checked; class_from_terms sums each module's class once,
    # however many steps read it
    (["satellite", fixture_path("cfa_trefoil_pattern"), fixture_path("cfk_figure8")],
     {"build_cfd": 1, "verify_a1": 1, "verify_a2_zero": 1, "decompose": 1,
      "check_ainf": 1, "class_from_terms": 2}),
    (["cfd-from-cfk", fixture_path("cfk_torus34"), "--json"],
     {"build_cfd": 1, "verify_a1": 1, "verify_a2_zero": 1, "class_from_terms": 1}),
    # the class comes from the beta sweep; enumeration is only a test oracle;
    # the sweep, the determinants and the kernel wedge each sum one class
    (["diagram-kernel", fixture_path("diag_twisted_p3")],
     {"enumerated_class": 1, "enumerate_generators": 0, "class_from_terms": 3}),
    (["k0", fixture_path("typed_triangle")], {"check_type_d": 1, "class_from_terms": 1}),
    (["k0", fixture_path("cfa_with_ops")], {"check_ainf": 1, "class_from_terms": 1}),
    (["pair", fixture_path("cfa_with_ops"), fixture_path("typed_triangle"), "--box"],
     {"check_type_d": 1, "check_ainf": 1, "class_from_terms": 2}),
    (["check", fixture_path("typed_triangle")], {"check_type_d": 1}),
    (["check", fixture_path("cfa_with_ops")], {"check_ainf": 1}),
    # reading a CFK file through CFKComplex is its check; no CFD is built
    (["check", fixture_path("cfk_torus34")], {}),
], ids=["satellite", "cfd-from-cfk", "diagram-kernel", "k0-typed", "k0-ainf", "pair",
        "check-typed", "check-pattern", "check-cfk"])
def test_each_command_runs_each_step_once(capsys, monkeypatch, argv, expected):
    counts = _count_calls(monkeypatch)
    assert invoke(capsys, *argv)[0] == 0
    assert counts == {**dict.fromkeys(COUNTED, 0), **expected}


def _renamed(old, new):
    """An edit of a CFK fixture that renames generator old to new."""
    def edit(data):
        for g in data["generators"]:
            g["name"] = new if g["name"] == old else g["name"]
        for arrow in data["vertical"] + data["horizontal"]:
            for end in ("src", "dst"):
                arrow[end] = new if arrow[end] == old else arrow[end]
    return edit


@pytest.mark.parametrize("old, new", [("a", "u1"), ("b", "v[b>c]1"), ("a", "v[b>c]1"),
                                      ("c", "h[b>a]1")])
def test_chain_names_avoid_the_cfk_names(capsys, tmp_path, old, new):
    """A CFK generator named like a chain generator of build_cfd keeps its
    name, and the chain takes another: the CFD has the class and Delta of
    the original."""
    code, out, _ = invoke(capsys, "cfd-from-cfk", fixture_path("cfk_trefoil_right"), "--json")
    path = _fixture_with(tmp_path, "cfk_trefoil_right", _renamed(old, new))
    code2, out2, err = invoke(capsys, "cfd-from-cfk", path, "--json")
    assert (code, code2, err) == (0, 0, "")
    want, got = json.loads(out), json.loads(out2)
    for key in ("class", "alexander_polynomial", "bounded"):
        assert got[key] == want[key]
    names = [g["name"] for g in got["generators"]]
    assert new in names and len(set(names)) == len(names) == len(want["generators"])
    assert invoke(capsys, "satellite", fixture_path("cfa_core"), path)[0] == 0


def test_the_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    parsers = set()
    for argv in (["k0", fixture_path("typed_triangle")], ["algebra", "--json"],
                 ["no-such-command"], ["check", fixture_path("cfk_unknot")]):
        invoke(capsys, *argv)
        parsers.add(id(cli.build_parser()))
    assert len(parsers) == 1
    assert cli.build_parser.cache_info().misses == 1


def test_satellite_checks_the_a2_component(capsys, monkeypatch):
    """A P = 0 pattern pairs to the right polynomial whatever the a2
    component of the companion is, so only verify_a2_zero sees one extra
    iota1 generator."""
    def unbalanced_build_cfd(cfk):
        cfd = cfk2cfd.build_cfd(cfk)
        extra = dmodules.ModuleGenerator("extra", cfk2cfd.IOTA1, 0, a2=0)
        return dmodules.TypeDStructure(
            cfd.pmc, [*cfd.generators.values(), extra], cfd.delta)

    monkeypatch.setattr(satellite, "build_cfd", unbalanced_build_cfd)
    code, out, err = invoke(capsys, "satellite", fixture_path("cfa_trefoil_pattern"),
                            fixture_path("cfk_trefoil_right"), "--report")
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: a2 component is "), err


def _torus_matching(d):
    d["pmc"] = {"matching": [1, 2, 1, 2]}  # the torus, spelled out
    return d["pmc"]["matching"]


# field -> (fixture, the container that holds it, its key there)
INTEGER_FIELDS = {
    "maslov": ("cfk_trefoil_right", lambda d: d["generators"][0], "maslov"),
    "alexander": ("cfk_trefoil_right", lambda d: d["generators"][0], "alexander"),
    "length": ("cfk_trefoil_right", lambda d: d["vertical"][0], "length"),
    "tau": ("cfk_trefoil_right", lambda d: d, "tau"),
    "m": ("typed_triangle", lambda d: d["generators"][0], "m"),
    "idem": ("typed_triangle", lambda d: d["generators"][0]["idem"], 0),
    "winding": ("cfa_winding2", lambda d: d, "winding"),
    "genus": ("diag_solid_torus", lambda d: d, "genus"),
    "alpha_circles": ("diag_solid_torus", lambda d: d, "alpha_circles"),
    "beta": ("diag_solid_torus", lambda d: d["points"][0], "beta"),
    "sign": ("diag_solid_torus", lambda d: d["points"][0], "sign"),
    "matching": ("typed_triangle", _torus_matching, 3),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_reject_floats_and_booleans(capsys, tmp_path, field):
    """An equal float or a boolean is no integer: int() would read 1.0 and
    true as 1, and truncate 2.7 to 2."""
    name, holder, key = INTEGER_FIELDS[field]
    for bad in (float, bool):
        def edit(d):
            h = holder(d)
            h[key] = bad(h[key])
        path = _fixture_with(tmp_path, name, edit)
        code, _, err = invoke(capsys, "check", path)
        assert code == 2, (field, bad)
        assert err.startswith(f"error: {path}: {field}") and err.count("\n") == 1, err


def _cfk_edit(key, index, **fields):
    """An edit setting fields of record index of key in a CFK file."""
    return lambda d: d[key][index].update(fields)


# cfk_trefoil_right has a (0, 1), b (-1, 0) and c (-2, -1) as (maslov,
# alexander), the vertical arrow b -> c, the horizontal b -> a and tau = 1.
MALFORMED_CFK = {
    "non-string name": (_cfk_edit("generators", 0, name=3),
                        "generator name must be a string, got 3"),
    "boolean maslov": (_cfk_edit("generators", 1, maslov=True),
                       "maslov must be an integer, got True"),
    "float maslov": (_cfk_edit("generators", 1, maslov=-1.0),
                     "maslov must be an integer, got -1.0"),
    "boolean alexander": (_cfk_edit("generators", 2, alexander=False),
                          "alexander must be an integer, got False"),
    "float alexander": (_cfk_edit("generators", 2, alexander=-1.0),
                        "alexander must be an integer, got -1.0"),
    "boolean length": (_cfk_edit("vertical", 0, length=True),
                       "length must be an integer, got True"),
    "float length": (_cfk_edit("horizontal", 0, length=1.0),
                     "length must be an integer, got 1.0"),
    "unknown arrow end": (_cfk_edit("horizontal", 0, dst="nope"), "unknown generator nope"),
    "non-string arrow end": (_cfk_edit("vertical", 0, src=7), "unknown generator 7"),
    "duplicate name": (lambda d: d["generators"].append(dict(d["generators"][0])),
                       "duplicate generator names"),
    "float tau": (lambda d: d.update(tau=1.0), "tau must be an integer, got 1.0"),
    "boolean tau": (lambda d: d.update(tau=True), "tau must be an integer, got True"),
    "tau off the Alexander gradings": (lambda d: d.update(tau=2),
                                       "unstable chain: a(xi_h) != a(xi_v) - 2 tau"),
    "no maslov": (lambda d: d["generators"][1].pop("maslov") and None,
                  "malformed cfk fixture (KeyError: 'maslov')"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CFK))
def test_malformed_cfk_messages(capsys, tmp_path, case):
    """The CFK reader checks each field inline; every malformed file still
    gets the message it got when each field went through `_name` and
    `_int`, from each command that reads a CFK file."""
    edit, message = MALFORMED_CFK[case]
    path = _fixture_with(tmp_path, "cfk_trefoil_right", edit)
    for argv in (["check", path], ["cfd-from-cfk", path], ["cfd-from-cfk", path, "--json"],
                 ["satellite", fixture_path("cfa_with_ops"), path]):
        assert invoke(capsys, *argv) == (2, "", f"error: {path}: {message}\n"), argv
