"""JSON fixture formats and the coefficient expression mini-language.

Half-integers travel as strings like "3/2" or "-2" and are read and written
as their doubled integers; integer fields take JSON integers only.
Coefficients of type D deltas and A-infinity operations are either "1" (the
idempotent of the incident generators), a named torus element (rho1, ...,
rho123, iota0, iota1), or a chord-set expression "rho(1,3)" / "rho(1,2;3,4)";
each resolves by its label to one index of `az_basis(pmc)`, whose
idempotents are then checked against the generators'.  A file resolves each
distinct (coefficient text, source idempotent, target idempotent) once, and
validates and freezes each distinct idem list once, however many delta
edges and generators repeat it.  The generators are checked before any
edge or op is read, and an edge or op naming no generator says so.  The
type D reader checks each fact once: each coefficient against its edge's
idempotents as it is parsed, then repeated edges; `TypeDStructure.built`
checks nothing again.
A diagram point's alpha is "arc:N" or "circle:N" with N in ASCII digits.
All dumps are canonical: sorted keys, no floats anywhere.  A type D file is
written by `dump_type_d`, one f-string per generator and delta record,
straight to the text that `dumps` writes for `type_d_to_json`'s data.
"""

from __future__ import annotations

import contextlib
import json
import re
from fractions import Fraction

from .cfk2cfd import Arrow, CFKComplex, CFKGenerator
from .diagram import BorderedDiagram, DiagramPoint
from .dmodules import (AInfModule, ModuleGenerator, TypeDStructure, _check_generators,
                       _check_repeated_edges)
from .grothendieck import ExteriorClass, LaurentHalf
from .pmc import NAMED_PMCS, PointedMatchedCircle, ReebChord
from .satellite import PatternClass
from .strands import AZBasis, az_basis
from .torus import torus_algebra


class FixtureError(ValueError):
    pass


def _int(value, field: str) -> int:
    """An integer field: a JSON integer, not a float or a boolean."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FixtureError(f"{field} must be an integer, got {value!r}")


def parse_half(value) -> int:
    """The doubled integer of a half-integer: an integer, or a string that
    Fraction reads as one ("3/2", "-2").  The forms dump_half writes, an
    optional "-", ASCII digits and an optional "/2", skip Fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return 2 * value
    if isinstance(value, str):
        half = value.endswith("/2")
        num = value[:-2] if half else value
        digits = num.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(num) if half else 2 * int(num)
        with contextlib.suppress(ValueError, ZeroDivisionError):
            if (f := Fraction(value)).denominator in (1, 2):
                return int(2 * f)
    raise FixtureError(f"not a half-integer: {value!r}")


def dump_half(a2: int) -> str:
    """The text of the half-integer a2 / 2, as `ratio_str(a2, 2)` writes it."""
    return f"{a2}/2" if a2 & 1 else str(a2 >> 1)


def pmc_from_json(data) -> PointedMatchedCircle:
    if isinstance(data, str):
        if data not in NAMED_PMCS:
            raise FixtureError(f"unknown pmc name {data!r}")
        return NAMED_PMCS[data]()
    if isinstance(data, dict) and "matching" in data:
        return PointedMatchedCircle(
            tuple(_int(p, "matching entry") for p in data["matching"]))
    raise FixtureError(f"bad pmc field: {data!r}")


def pmc_to_json(pmc: PointedMatchedCircle) -> dict:
    return {"matching": list(pmc.matching)}


_CHORD_EXPR = re.compile(r"rho\((.*)\)")
_CHORD = re.compile(r" *([0-9]+) *, *([0-9]+) *")


def parse_coefficient(basis: AZBasis, expr: str,
                      left: frozenset[int], right: frozenset[int] | None = None) -> int:
    """The index in basis, an `az_basis`, of a coefficient from the pair set left.

    "1" is I(left), a torus name its element and rho(...) the element
    a(rho, left) of its chords.  Its right pair set must be right; with
    right None the expression fixes it, as each input of an A-infinity
    operation does along its chain.
    """
    if not isinstance(expr, str):
        raise FixtureError(f"coefficient must be a string, got {expr!r}")
    expr, left = expr.strip(), frozenset(left)
    if expr == "1":
        i = basis.by_label.get(((), left))
    elif expr in torus_algebra().index:
        if not basis.is_torus:
            raise FixtureError(f"named element {expr} needs the torus pmc")
        i = torus_algebra().index[expr]
    else:
        m = _CHORD_EXPR.fullmatch(expr)
        if not m:
            raise FixtureError(f"cannot parse coefficient {expr!r}")
        chords = []
        for part in m.group(1).split(";"):
            ends = _CHORD.fullmatch(part)
            if not ends:
                raise FixtureError(f"bad chord {part!r} in {expr!r}")
            start, end = int(ends[1]), int(ends[2])
            if not start < end:
                raise FixtureError(f"chord must run with the orientation: "
                                   f"{ReebChord(start, end)}")
            chords.append((start, end))
        i = basis.by_label.get((tuple(sorted(chords)), left))
    s, t = (None, None) if i is None else basis.idempotents[i]
    if right is None:
        if s != left:
            raise FixtureError(
                f"operation input {expr!r} incompatible with idempotent chain")
    elif (s, t) != (left, right):
        raise FixtureError(
            f"coefficient {expr!r} vanishes between {set(left)} and {set(right)}")
    return i


def dump_coefficient(basis: AZBasis, i: int) -> str:
    """The expression of the coefficient with index i in `basis`."""
    if i in basis.idempotent_indices:
        return "1"
    if basis.is_torus:
        return torus_algebra().names[i]
    spec = ";".join(f"{s},{t}" for s, t in basis.labels[i][0])
    return f"rho({spec})"


def _name(value) -> str:
    """Generator names are strings, so dumps can sort them."""
    if not isinstance(value, str):
        raise FixtureError(f"generator name must be a string, got {value!r}")
    return value


def _generators_from_json(items):
    """The records of a file in normal form, each field checked once as it is
    read (a, name, idem, m).  Each distinct a text is read once, and each idem
    list of integers validated and frozen once, keyed by its one entry or its
    tuple; any other list (true reads as equal to 1) is validated where it is."""
    gens, frozen, halves = [], {}, {}
    new = tuple.__new__
    for item in items:
        a = item["a"] if "a" in item else None
        if type(a) is str:
            a2 = halves.get(a)
            if a2 is None:
                a2 = halves[a] = parse_half(a)
        else:
            a2 = None if a is None else parse_half(a)
        name = item["name"]
        if type(name) is not str:
            name = _name(name)
        idem = item["idem"]
        if type(idem) is list and len(idem) == 1 and type(idem[0]) is int:
            key = idem[0]
        else:
            key = tuple(idem) if type(idem) is list and set(map(type, idem)) <= {int} else None
        idempotent = frozen.get(key)
        if idempotent is None:
            idempotent = frozenset(_int(i, "idem entry") for i in idem)
            if len(idempotent) != len(idem):
                raise FixtureError(f"{name}: repeated idem entry in {idem}")
            if key is not None:
                frozen[key] = idempotent
        m = item["m"]
        gens.append(new(ModuleGenerator,
                        (name, idempotent, (m if type(m) is int else _int(m, "m")) & 1, a2)))
    return gens


def _generators_to_json(table):
    """The records of the name -> generator table, by name, with their keys
    in sorted order; one sorted idem list serves every generator of an
    idempotent."""
    idems = {}
    out = []
    for name in sorted(table):
        _, s, m, a2 = table[name]
        if s not in idems:
            idems[s] = sorted(s)
        if a2 is None:
            out.append({"idem": idems[s], "m": m, "name": name})
        else:
            out.append({"a": dump_half(a2), "idem": idems[s], "m": m, "name": name})
    return out


def type_d_from_json(data) -> TypeDStructure:
    pmc = pmc_from_json(data["pmc"])
    table = _check_generators(pmc, _generators_from_json(data["generators"]))
    idem = {name: g.idempotent for name, g in table.items()}
    basis, delta, resolved = az_basis(pmc), [], {}
    for entry in data.get("delta", []):
        src, dst, expr = entry["src"], entry["dst"], entry["coeff"]
        try:
            left, right = idem[src], idem[dst]
        except KeyError as exc:
            raise FixtureError(f"delta edge {src}->{dst}: unknown generator "
                               f"{exc.args[0]}") from None
        # Only text is ever stored: parse_coefficient rejects anything else.
        key = (expr, left, right)
        i = resolved.get(key) if type(expr) is str else None
        if i is None:
            i = resolved[key] = parse_coefficient(basis, expr, left, right)
        delta.append((src, i, dst))
    _check_repeated_edges(delta)
    return TypeDStructure.built(pmc, table, delta)


def type_d_to_json(N: TypeDStructure) -> dict:
    """The type D file of N as JSON data; `dump_type_d` writes its text."""
    coeff = {i: dump_coefficient(N.basis, i) for i in {i for _, i, _ in N.delta}}
    return {
        "pmc": pmc_to_json(N.pmc),
        "generators": _generators_to_json(N.generators),
        "delta": [{"coeff": coeff[i], "dst": d, "src": s} for s, i, d in N.delta],
    }


def ainf_from_json(data) -> AInfModule:
    pmc = pmc_from_json(data["pmc"])
    gens = _generators_from_json(data["generators"])
    idem = {name: g.idempotent for name, g in _check_generators(pmc, gens).items()}
    basis = az_basis(pmc)
    ops = []
    for entry in data.get("ops", []):
        x, y = entry["x"], entry["y"]
        for name in (x, y):
            if name not in idem:
                raise FixtureError(f"op {x} -> {y}: unknown generator {name}")
        ids = []
        left = idem[x]
        for expr in entry.get("algs", []):
            ids.append(parse_coefficient(basis, expr, left))
            left = basis.idempotents[ids[-1]][1]
        ops.append((x, ids, y))
    return AInfModule(pmc, gens, ops)


def pattern_from_json(data) -> PatternClass:
    return PatternClass(ainf_from_json(data), _int(data.get("winding", 1), "winding"))


def cfk_from_json(data) -> CFKComplex:
    # each field checked as it is read, each record built by tuple.__new__
    new = tuple.__new__
    gens = [new(CFKGenerator, (n if type(n := g["name"]) is str else _name(n),
                               m if type(m := g["maslov"]) is int else _int(m, "maslov"),
                               a if type(a := g["alexander"]) is int else _int(a, "alexander")))
            for g in data["generators"]]
    def arrows(key):
        return [new(Arrow, (a["src"], a["dst"],
                            n if type(n := a["length"]) is int else _int(n, "length")))
                for a in data.get(key, [])]
    return CFKComplex(gens, arrows("vertical"), arrows("horizontal"),
                      _int(data.get("tau", 0), "tau"))


def _alpha(value) -> tuple[str, int]:
    """(kind, index) of an alpha field "kind:N", N in ASCII digits; the
    diagram checks the kind and the index's range."""
    if isinstance(value, str):
        kind, sep, idx = value.partition(":")
        if sep and idx.isascii() and idx.isdigit():
            return kind, int(idx)
    raise FixtureError(f"alpha must be 'arc:N' or 'circle:N', got {value!r}")


def diagram_from_json(data) -> BorderedDiagram:
    pmc = pmc_from_json(data["pmc"])
    points = []
    for i, p in enumerate(data.get("points", [])):
        points.append(DiagramPoint(_alpha(p["alpha"]), _int(p["beta"], "beta"),
                                   _int(p["sign"], "sign"), i))
    return BorderedDiagram(pmc, _int(data["genus"], "genus"),
                           _int(data["alpha_circles"], "alpha_circles"), points)


def laurent_to_json(p: LaurentHalf) -> list:
    return [[dump_half(e), c] for e, c in p.coeffs]


def class_to_json(cls: ExteriorClass) -> dict:
    return {",".join(map(str, sorted(s))): laurent_to_json(c)
            for s, c in sorted(cls.coeffs.items(),
                               key=lambda kv: (len(kv[0]), sorted(kv[0])))}


# Every value dumped is built afresh by this module or the CLI, so none holds
# a cycle for the encoder to look for.
_ENCODE = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _key(k) -> str:
    """The JSON text of the dict key k, as the encoder writes it."""
    return _ENCODE({k: 0})[1:-4]


def _joint(items) -> str | None:
    """The text the encoder writes between neighbours in the list items
    when all of them are dicts, or all are lists; None otherwise."""
    if all(isinstance(x, dict) for x in items):
        return "}, {"
    if all(isinstance(x, (list, tuple)) for x in items):
        return "], ["
    return None


def _spread(data, indent: str, levels: int) -> str:
    """The JSON text of data, its containers down to `levels` deep written
    one member per line and everything deeper on its member's line."""
    if levels == 0 or not data or not isinstance(data, (dict, list, tuple)):
        return _ENCODE(data)
    inner = indent + "  "
    if isinstance(data, dict):
        members = [f"{_key(k)}: {_spread(data[k], inner, levels - 1)}"
                   for k in sorted(data)]
        return "{\n%s%s\n%s}" % (inner, f",\n{inner}".join(members), indent)
    if levels == 1 and (joint := _joint(data)):
        # One encoder call for the whole list: each of the len - 1 joints is
        # one occurrence of the joint text, so when the text holds no other
        # occurrence, the joints are exactly where it splits into lines.
        # Against one call per record this took ~11% off the staircase op.
        text = _ENCODE(data)
        if text.count(joint) == len(data) - 1:
            body = text[1:-1].replace(joint, f"{joint[0]},\n{inner}{joint[-1]}")
            return "[\n%s%s\n%s]" % (inner, body, indent)
    members = [_spread(x, inner, levels - 1) for x in data]
    return "[\n%s%s\n%s]" % (inner, f",\n{inner}".join(members), indent)


def dumps(data) -> str:
    """The JSON text of data with sorted keys, ASCII only, and a newline.
    The top-level container and each container directly inside it put one
    member per line; anything deeper stays on its member's line.  Every
    line is written by the C encoder; an indented dump would go through the
    pure-Python one, which took several times as long."""
    return _spread(data, "", 2) + "\n"


def _records(lines: list[str]) -> str:
    """The text `_spread` writes for a list of records one level down."""
    return "[\n    %s\n  ]" % ",\n    ".join(lines) if lines else "[]"


def dump_type_d(N: TypeDStructure, extra: dict) -> str:
    """The text of `dumps(type_d_to_json(N) | extra)`, extra holding no
    generators or delta key.  Each generator and delta record is one
    f-string: names and coefficient texts are escaped by the encoder's own
    `encode_basestring_ascii` (each distinct one once), a is `dump_half`'s
    text, and no dict is built for a record.  pmc and the members of extra
    go through `_spread`."""
    quote = json.encoder.encode_basestring_ascii
    names = {name: quote(name) for name in N.generators}
    idems: dict[frozenset[int], str] = {}
    generators = []
    for name in sorted(N.generators):
        _, s, m, a2 = N.generators[name]
        idem = idems.get(s)
        if idem is None:
            idem = idems[s] = _ENCODE(sorted(s))
        if a2 is None:
            generators.append(f'{{"idem": {idem}, "m": {m}, "name": {names[name]}}}')
        else:
            generators.append(f'{{"a": "{dump_half(a2)}", "idem": {idem}, "m": {m}, '
                              f'"name": {names[name]}}}')
    coeff = {i: quote(dump_coefficient(N.basis, i)) for i in {i for _, i, _ in N.delta}}
    members = {key: _spread(value, "  ", 1)
               for key, value in ({"pmc": pmc_to_json(N.pmc)} | extra).items()}
    members["generators"] = _records(generators)
    members["delta"] = _records([f'{{"coeff": {coeff[i]}, "dst": {names[d]}, '
                                 f'"src": {names[s]}}}' for s, i, d in N.delta])
    return "{\n  %s\n}\n" % ",\n  ".join(f"{_key(k)}: {members[k]}" for k in sorted(members))


def load_file(path: str) -> dict:
    """The parsed JSON at path, read as UTF-8 whatever the locale, as JSON
    requires; bytes that are not UTF-8, text that is not JSON, or JSON nested
    too deeply for the parser raise FixtureError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise FixtureError(f"{path}: {exc}") from exc


KIND_LOADERS = {
    "pmc": pmc_from_json,
    "typed": type_d_from_json,
    "ainf": ainf_from_json,
    "pattern": pattern_from_json,
    "cfk": cfk_from_json,
    "diagram": diagram_from_json,
}


def sniff_kind(data) -> str:
    if isinstance(data, dict):
        if "delta" in data:
            return "typed"
        if "ops" in data or "winding" in data:
            return "pattern"
        if "tau" in data or "vertical" in data:
            return "cfk"
        if "points" in data:
            return "diagram"
        if "matching" in data:
            return "pmc"
    raise FixtureError("cannot determine fixture kind")


# An A-infinity module file has the pattern format without the winding.
_FORMAT_OF_KIND = {"ainf": "pattern"}


def read(path: str, *kinds: str):
    """Load the fixture at path as (kind, object); kinds are the accepted
    kinds, all of them when none are given.

    A file of another kind, one whose shape the loader cannot walk, or one
    whose values the loader rejects raises FixtureError naming the file.
    """
    data = load_file(path)
    try:
        found = sniff_kind(data)
    except FixtureError as exc:
        raise FixtureError(f"{path}: {exc}") from None
    kind = next((k for k in kinds if _FORMAT_OF_KIND.get(k, k) == found),
                None) if kinds else found
    if kind is None:
        raise FixtureError(
            f"{path}: expected a {' or '.join(kinds)} fixture, found {found}")
    try:
        return kind, KIND_LOADERS[kind](data)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise FixtureError(f"{path}: malformed {kind} fixture "
                           f"({type(exc).__name__}: {exc})") from exc
    except ValueError as exc:
        raise FixtureError(f"{path}: {exc}") from exc
