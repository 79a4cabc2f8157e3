"""Independent verdict oracles.

Every expected value is computed here from the benchmark's own inputs, never
by calling bdecat.  Laurent polynomials in t^(1/2) are dicts from doubled
exponents to integer coefficients, the same encoding the program's JSON
uses after doubling.  Each check returns a list of problems; empty means the
verdict is correct.
"""

from __future__ import annotations

from fractions import Fraction

from diagrams import circle_minors_gcd, deleted, duality_sign, leibniz_det, subsets


def from_json(items) -> dict[int, int]:
    """[["3/2", c], ...] as {3: c}."""
    out: dict[int, int] = {}
    for e, c in items:
        d = 2 * Fraction(e)
        if d.denominator != 1:
            raise ValueError(f"exponent {e} is not a half-integer")
        out[int(d)] = out.get(int(d), 0) + int(c)
    return {e: c for e, c in out.items() if c}


def doubled(p: dict[int, int]) -> dict[int, int]:
    """Integer-exponent polynomial in the doubled-exponent encoding."""
    return {2 * e: c for e, c in p.items()}


def multiply(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def substitute(p: dict[int, int], w: int) -> dict[int, int]:
    """t -> t^w."""
    return {w * e: c for e, c in p.items()}


def normalize_symmetric(p: dict[int, int]) -> dict[int, int] | None:
    """The representative with q(t) = q(1/t) and q(1) >= 0 (top coefficient
    positive when q(1) = 0); None when no shift makes p symmetric."""
    span = min(p) + max(p)
    if span % 2:
        return None
    q = {e - span // 2: c for e, c in p.items()}
    if any(q.get(-e) != c for e, c in q.items()):
        return None
    total = sum(q.values())
    if total < 0 or (total == 0 and q[max(q)] < 0):
        q = {e: -c for e, c in q.items()}
    return q


def pattern_q(pattern: dict) -> dict[int, int]:
    """Q(t): the signed count (-1)^m t^a of the pattern's iota0 generators."""
    q: dict[int, int] = {}
    for g in pattern["generators"]:
        if g["idem"] == [1]:
            e = int(2 * Fraction(g.get("a", "0")))
            q[e] = q.get(e, 0) + (-1 if g["m"] % 2 else 1)
    return {e: c for e, c in q.items() if c}


class StaircaseCase:
    """Expected outputs of the three commands on one staircase and pattern."""

    def __init__(self, delta: dict[int, int], cfd_generators: int,
                 pattern: dict, winding: int):
        self.delta = doubled(delta)
        self.cfd_generators = cfd_generators
        self.winding = winding
        self.pairing = multiply(pattern_q(pattern), substitute(self.delta, winding))
        self.satellite = normalize_symmetric(self.pairing)

    def check_cfd(self, out: dict) -> list[str]:
        problems = []
        if len(out["generators"]) != self.cfd_generators:
            problems.append(f"{len(out['generators'])} CFD generators, "
                            f"expected {self.cfd_generators}")
        if from_json(out["class"].get("1", [])) != self.delta:
            problems.append("a1 class differs from Delta")
        if from_json(out["class"].get("2", [])):
            problems.append("a2 class is not 0")
        if from_json(out["alexander_polynomial"]) != self.delta:
            problems.append("alexander_polynomial differs from Delta")
        if out["bounded"] is not True:
            problems.append("CFD of a knot with tau != 0 reported unbounded")
        return problems

    def check_pair(self, out: dict) -> list[str]:
        problems = []
        if out["equal"] is not True:
            problems.append("pair --box: euler != pairing")
        if from_json(out["pairing"]) != self.pairing:
            problems.append("pairing differs from Q(t) Delta(t^w)")
        if from_json(out["euler"]) != self.pairing:
            problems.append("box tensor euler characteristic differs from Q(t) Delta(t^w)")
        if out["weight"] != self.winding:
            problems.append(f"weight {out['weight']}, expected {self.winding}")
        return problems

    def check_satellite(self, out: dict) -> list[str]:
        problems = []
        if out["verdict"] != "OK":
            problems.append(f"satellite verdict {out['verdict']}")
        if from_json(out["satellite"]) != self.satellite:
            problems.append("satellite differs from normalized Q(t) Delta(t^w)")
        if from_json(out["pairing"]) != self.satellite:
            problems.append("satellite pairing differs from normalized Q(t) Delta(t^w)")
        if from_json(out["Delta_K"]) != self.delta:
            problems.append("Delta_K differs from Delta")
        if out["winding"] != self.winding:
            problems.append(f"winding {out['winding']}, expected {self.winding}")
        return problems


def check_selftest(returncode: int, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    problems += [line for line in lines if line.startswith("FAIL")]
    if not any(line.startswith("PASS") and "torus: dim A(Z, 0)  = 8" in line
               for line in lines):
        problems.append("no 'torus: dim A(Z, 0)  = 8' line")
    if "all identities hold" not in lines:
        problems.append("no 'all identities hold' line")
    return problems


def check_diagram(k: int, genus: int, signed, enumerated: dict, determinants: dict,
                  order: int | None) -> list[str]:
    """enumerated and determinants map each k-subset (a tuple) to its integer
    class coefficient; order is |H_1(Y, dY)| or None for infinite."""
    problems = []
    for s in subsets(k):
        det = leibniz_det(deleted(k, genus, signed, s))
        if determinants.get(s, 0) != det:
            problems.append(f"determinant class at {s}: {determinants.get(s, 0)} != {det}")
        want = duality_sign(k, genus, s) * det
        if enumerated.get(s, 0) != want:
            problems.append(f"enumerated class at {s}: {enumerated.get(s, 0)} != {want}")
    minors = circle_minors_gcd(k, genus, signed)
    if (order or 0) != minors:
        problems.append(f"order {order}, gcd of maximal circle minors {minors}")
    return problems
