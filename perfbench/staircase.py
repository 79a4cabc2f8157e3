"""CFK^- staircases of torus knots, built from the closed-form Alexander polynomial.

Torus knots are L-space knots, so CFK^-(T(p,q)) is the staircase fixed by
Delta(t) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) (Ozsvath-Szabo,
arXiv:math/0303017).  The staircase carries its own answer: the Alexander
polynomial, the genus (= tau) and the arrow lengths are all read off Delta,
so nothing here calls bdecat.
"""

from __future__ import annotations

from math import gcd


def _divide_by_binomial(c: list[int], p: int) -> list[int]:
    """Exact quotient of the polynomial c (ascending coefficients) by t^p - 1."""
    q = [0] * (len(c) - p)
    for i in range(len(q)):
        q[i] = (q[i - p] if i >= p else 0) - c[i]
    rest = [c[i] - ((q[i - p] if 0 <= i - p < len(q) else 0)
                    - (q[i] if i < len(q) else 0)) for i in range(len(c))]
    if any(rest):
        raise ValueError(f"polynomial is not divisible by t^{p} - 1")
    return q


def torus_alexander(p: int, q: int) -> dict[int, int]:
    """Symmetric Alexander polynomial of T(p,q) as {exponent: coefficient}."""
    if not (2 <= p < q and gcd(p, q) == 1):
        raise ValueError(f"T({p},{q}) is not a nontrivial torus knot")
    num = [0] * (p * q + 2)
    # (t^pq - 1)(t - 1) = t^(pq+1) - t^pq - t + 1
    num[p * q + 1] += 1
    num[p * q] -= 1
    num[1] -= 1
    num[0] += 1
    quot = _divide_by_binomial(_divide_by_binomial(num, p), q)
    genus = (p - 1) * (q - 1) // 2
    return {e - genus: c for e, c in enumerate(quot) if c}


def torus_genus(p: int, q: int) -> int:
    return (p - 1) * (q - 1) // 2


def staircase(delta: dict[int, int], mirror: bool = False) -> dict:
    """CFK JSON of the staircase with Alexander polynomial delta.

    Generators a0, b1, a1, ..., bn, an run down the exponents of delta.
    Horizontal arrows b_j -> a_{j-1} and vertical arrows b_j -> a_j have
    the exponent gaps as lengths, M(a0) = 0 and tau is the top exponent.
    The mirror negates both gradings, reverses every arrow and negates tau.
    """
    exps = sorted(delta, reverse=True)
    if [delta[e] for e in exps] != [(-1) ** i for i in range(len(exps))]:
        raise ValueError("not an L-space knot polynomial: signs must alternate")
    names = [f"a{i // 2}" if i % 2 == 0 else f"b{(i + 1) // 2}"
             for i in range(len(exps))]
    maslov = [0]
    for i in range(1, len(exps)):
        if i % 2:  # b_j sits a horizontal arrow of length e_{i-1} - e_i below a_{j-1}
            maslov.append(maslov[-1] + 1 - 2 * (exps[i - 1] - exps[i]))
        else:
            maslov.append(maslov[-1] - 1)
    horizontal, vertical = [], []
    for i in range(1, len(exps), 2):
        horizontal.append((names[i], names[i - 1], exps[i - 1] - exps[i]))
        vertical.append((names[i], names[i + 1], exps[i] - exps[i + 1]))
    sign = -1 if mirror else 1

    def arrows(items):
        return [{"src": d, "dst": s, "length": n} if mirror
                else {"src": s, "dst": d, "length": n} for s, d, n in items]

    return {
        "generators": [{"name": n, "maslov": sign * m, "alexander": sign * e}
                       for n, m, e in zip(names, maslov, exps)],
        "horizontal": arrows(horizontal),
        "vertical": arrows(vertical),
        "tau": sign * exps[0],
    }


def cfd_generator_count(cfk: dict) -> int:
    """Generators of the 0-framed CFD: CFK generators, one per unit of arrow
    length, and the 2|tau| generators of the unstable chain."""
    lengths = sum(a["length"] for key in ("horizontal", "vertical") for a in cfk[key])
    return len(cfk["generators"]) + lengths + 2 * abs(cfk["tau"])


def torus_knots(min_genus: int, max_genus: int) -> list[tuple[int, int]]:
    """Every T(p,q), 2 <= p < q, with genus in [min_genus, max_genus]."""
    out = []
    p = 2
    while torus_genus(p, p + 1) <= max_genus:
        for q in range(p + 1, 2 * max_genus // (p - 1) + 2):
            g = torus_genus(p, q)
            if g > max_genus:
                break
            if g >= min_genus and gcd(p, q) == 1:
                out.append((p, q))
        p += 1
    return out
