"""JSON fixture formats and the coefficient expression mini-language.

Half-integers travel as strings like "3/2" or "-2"; coefficients of type D
deltas and A-infinity operations are either "1" (the idempotent of the
incident generators), a named torus element (rho1, ..., rho123, iota0,
iota1), or a chord-set expression "rho(1,3)" / "rho(1,2;3,4)" resolved
through the strands algebra and pinched between the generators' idempotents.
All dumps are canonical: sorted keys, no floats anywhere.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

from . import strands
from .cfk2cfd import Arrow, CFKComplex, CFKGenerator
from .diagram import BorderedDiagram, DiagramPoint
from .dmodules import AInfModule, ModuleGenerator, TypeDStructure
from .grothendieck import ExteriorClass, LaurentHalf
from .pmc import NAMED_PMCS, PointedMatchedCircle, ReebChord
from .satellite import PatternClass
from .strands import AZBasis
from .torus import torus_algebra


class FixtureError(ValueError):
    pass


def parse_half(value) -> Fraction:
    if isinstance(value, bool):
        raise FixtureError(f"not a half-integer: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except ValueError as exc:
            raise FixtureError(f"not a half-integer: {value!r}") from exc
        if f.denominator in (1, 2):
            return f
    raise FixtureError(f"not a half-integer: {value!r}")


def dump_half(f: Fraction) -> str:
    return str(Fraction(f))


def pmc_from_json(data) -> PointedMatchedCircle:
    if isinstance(data, str):
        if data not in NAMED_PMCS:
            raise FixtureError(f"unknown pmc name {data!r}")
        return NAMED_PMCS[data]()
    if isinstance(data, dict) and "matching" in data:
        return PointedMatchedCircle(tuple(data["matching"]))
    raise FixtureError(f"bad pmc field: {data!r}")


def pmc_to_json(pmc: PointedMatchedCircle) -> dict:
    return {"matching": list(pmc.matching)}


_CHORD_EXPR = re.compile(r"rho\((.*)\)")
_CHORD = re.compile(r" *([0-9]+) *, *([0-9]+) *")


def parse_coefficient(pmc: PointedMatchedCircle, expr: str,
                      left: frozenset[int], right: frozenset[int] | None = None):
    """Resolve a coefficient expression between two idempotents.

    With right None the expression must fix the right idempotent from left,
    as each input of an A-infinity operation does along its chain.
    """
    if not isinstance(expr, str):
        raise FixtureError(f"coefficient must be a string, got {expr!r}")
    expr = expr.strip()
    if expr == "1":
        el = strands.pair_idempotent(pmc, left)
    elif expr in torus_algebra().elements:
        if pmc != torus_algebra().pmc:
            raise FixtureError(f"named element {expr} needs the torus pmc")
        el = torus_algebra().elements[expr]
    else:
        m = _CHORD_EXPR.fullmatch(expr)
        if not m:
            raise FixtureError(f"cannot parse coefficient {expr!r}")
        chords = []
        for part in m.group(1).split(";"):
            ends = _CHORD.fullmatch(part)
            if not ends:
                raise FixtureError(f"bad chord {part!r} in {expr!r}")
            chords.append(ReebChord(int(ends[1]), int(ends[2])))
        el = strands.a_of(pmc, chords, 0)
    if right is None:
        rights = {frozenset(pmc.pair_of(p) for p in g.T)
                  for g in el.terms
                  if frozenset(pmc.pair_of(p) for p in g.S) == left}
        if len(rights) != 1:
            raise FixtureError(
                f"operation input {expr!r} incompatible with idempotent chain")
        right = next(iter(rights))
    pinched = strands.pinch(pmc, left, el, right)
    if not pinched:
        raise FixtureError(
            f"coefficient {expr!r} vanishes between {set(left)} and {set(right)}")
    return pinched


def dump_coefficient(basis: AZBasis, ids: tuple[int, ...]) -> str:
    """The expression of a coefficient given as indices into `basis`."""
    if len(ids) != 1:
        raise FixtureError("coefficient is not a single chord-set element")
    i = ids[0]
    if i in basis.idempotent_indices:
        return "1"
    if basis.pmc == torus_algebra().pmc:
        return torus_algebra().names[i]
    g = next(iter(basis.elements[i].terms))  # every term has the same chords
    spec = ";".join(f"{s},{t}" for s, t in sorted(g.moving_strands))
    return f"rho({spec})"


def _name(value) -> str:
    """Generator names are strings, so dumps can sort them."""
    if not isinstance(value, str):
        raise FixtureError(f"generator name must be a string, got {value!r}")
    return value


def _generators_from_json(items):
    gens = []
    for item in items:
        a = parse_half(item["a"]) if "a" in item and item["a"] is not None else None
        gens.append(ModuleGenerator(_name(item["name"]), frozenset(item["idem"]),
                                    int(item["m"]), a))
    return gens


def _generators_to_json(gens):
    out = []
    for g in sorted(gens, key=lambda g: g.name):
        item = {"name": g.name, "idem": sorted(g.idempotent), "m": g.m}
        if g.a is not None:
            item["a"] = dump_half(g.a)
        out.append(item)
    return out


def type_d_from_json(data) -> TypeDStructure:
    pmc = pmc_from_json(data["pmc"])
    gens = _generators_from_json(data["generators"])
    by_name = {g.name: g for g in gens}
    delta = []
    for entry in data.get("delta", []):
        src, dst = entry["src"], entry["dst"]
        coeff = parse_coefficient(pmc, entry["coeff"],
                                  by_name[src].idempotent,
                                  by_name[dst].idempotent)
        delta.append((src, coeff, dst))
    return TypeDStructure(pmc, gens, delta)


def type_d_to_json(N: TypeDStructure) -> dict:
    return {
        "pmc": pmc_to_json(N.pmc),
        "generators": _generators_to_json(N.generators.values()),
        "delta": [{"src": s, "coeff": dump_coefficient(N.basis, ids), "dst": d}
                  for s, ids, d in N.delta],
    }


def ainf_from_json(data) -> AInfModule:
    pmc = pmc_from_json(data["pmc"])
    gens = _generators_from_json(data["generators"])
    by_name = {g.name: g for g in gens}
    ops = []
    for entry in data.get("ops", []):
        x, y = entry["x"], entry["y"]
        algs = []
        left = by_name[x].idempotent
        for expr in entry.get("algs", []):
            el = parse_coefficient(pmc, expr, left)
            algs.append(el)
            _, left = strands.left_right_pairs(pmc, el)
        ops.append((x, algs, y))
    return AInfModule(pmc, gens, ops)


def ainf_to_json(M: AInfModule) -> dict:
    ops = []
    for x, ids, y in M.ops:
        ops.append({"x": x,
                    "algs": [dump_coefficient(M.basis, (i,)) for i in ids],
                    "y": y})
    return {
        "pmc": pmc_to_json(M.pmc),
        "generators": _generators_to_json(M.generators.values()),
        "ops": ops,
    }


def pattern_from_json(data) -> PatternClass:
    return PatternClass(ainf_from_json(data), int(data.get("winding", 1)))


def pattern_to_json(pc: PatternClass) -> dict:
    out = ainf_to_json(pc.cfa)
    out["winding"] = pc.winding
    return out


def cfk_from_json(data) -> CFKComplex:
    gens = [CFKGenerator(_name(g["name"]), int(g["maslov"]), int(g["alexander"]))
            for g in data["generators"]]
    def arrows(key):
        return [Arrow(a["src"], a["dst"], int(a["length"]))
                for a in data.get(key, [])]
    return CFKComplex(gens, arrows("vertical"), arrows("horizontal"),
                      int(data.get("tau", 0)))


def cfk_to_json(cfk: CFKComplex) -> dict:
    return {
        "generators": [{"name": g.name, "maslov": g.maslov,
                        "alexander": g.alexander} for g in cfk.generators],
        "vertical": [{"src": a.src, "dst": a.dst, "length": a.length}
                     for a in cfk.vertical],
        "horizontal": [{"src": a.src, "dst": a.dst, "length": a.length}
                       for a in cfk.horizontal],
        "tau": cfk.tau,
    }


def diagram_from_json(data) -> BorderedDiagram:
    pmc = pmc_from_json(data["pmc"])
    points = []
    for i, p in enumerate(data.get("points", [])):
        kind, _, idx = p["alpha"].partition(":")
        points.append(DiagramPoint((kind, int(idx)), int(p["beta"]),
                                   int(p["sign"]), i))
    return BorderedDiagram(pmc, int(data["genus"]),
                           int(data["alpha_circles"]), points)


def diagram_to_json(d: BorderedDiagram) -> dict:
    return {
        "pmc": pmc_to_json(d.pmc),
        "genus": d.genus,
        "alpha_circles": d.alpha_circles,
        "points": [{"alpha": f"{p.alpha[0]}:{p.alpha[1]}", "beta": p.beta,
                    "sign": p.sign} for p in d.points],
    }


def laurent_to_json(p: LaurentHalf) -> list:
    return [[dump_half(Fraction(e, 2)), c] for e, c in p.coeffs]


def class_to_json(cls: ExteriorClass) -> dict:
    return {",".join(map(str, sorted(s))): laurent_to_json(c)
            for s, c in sorted(cls.coeffs.items(),
                               key=lambda kv: (len(kv[0]), sorted(kv[0])))}


def dumps(data) -> str:
    """The sorted, indented JSON text of data and a newline, joined 4096 encoder
    chunks at a time: all the small strings of the indenting encoder take ~8x the text."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(data)
    pieces = iter(lambda: "".join(itertools.islice(chunks, 4096)), "")
    return "".join(itertools.chain(pieces, ["\n"]))


def load_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


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
