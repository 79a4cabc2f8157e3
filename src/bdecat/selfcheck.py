"""Exhaustive algebra checks for the torus and split genus-2 circles: d^2 = 0
on every summand, Leibniz, associativity, gr' and m on every nonzero product
and differential of A(Z, 0), read from its `AZBasis` tables; f_s on random
grading pairs; and f(lambda) = f(g_i) = 1.

Leibniz is checked on composable pairs only, those where the right
idempotent of a is the left idempotent of b.  On any other pair ab = 0, and
since every differential keeps the idempotents of its input and every
product has the idempotents (left(a), right(b)), d(a) b = a d(b) = 0 too:
both sides are 0.  The line "products and differentials respect idempotents"
checks exactly those two facts on the tables, and that no key of `products`
pairs mismatched idempotents, so the skip rests on a checked line.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from functools import reduce

from . import strands
from .grading import (GradingElement, NotInGZ, _odd_jumps, _pair_chord_data,
                      f_s, gmul, gpow, gr_prime, lam, m_table)
from .pmc import PointedMatchedCircle, ReebChord, split_pmc, torus_pmc
from .strands import AZBasis, az_basis

HOM_PAIRS = 1000


def _random_gz_element(pmc, rng) -> GradingElement:
    ends, _ = _pair_chord_data(pmc)
    alpha = [0] * (pmc.num_points - 1)
    for lo, hi in ends:
        c = rng.randint(-2, 2)
        for i in range(lo, hi):
            alpha[i - 1] += c
    alpha = tuple(alpha)
    # 4j must equal the number of half-integer points mod 4, and j lands in (1/2)Z
    half_pts = _odd_jumps(alpha)
    if half_pts % 2:
        raise NotInGZ(f"alpha={alpha} is not in G(Z)")
    return GradingElement(half_pts % 4 + 4 * rng.randint(-3, 3), alpha)


def _sum(parts) -> frozenset[int]:
    """The F2 sum of basis-index tuples."""
    return reduce(frozenset.symmetric_difference, parts, frozenset())


def _nonzero_triples(products):
    """Each (a, b, c) with a nonzero term in (ab)c or a(bc), once."""
    after, before = defaultdict(list), defaultdict(list)
    for a, b in products:
        after[a].append(b)
        before[b].append(a)
    for (a, b), ab in products.items():
        yield from ((a, b, c) for c in set().union(*(after[r] for r in ab)))
    for (b, c), bc in products.items():
        yield from ((a, b, c) for a in set().union(*(before[r] for r in bc))
                    if not any(c in after[r] for r in products.get((a, b), ())))


def run_selfcheck(verbose: bool = True, seed: int = 0) -> list[str]:
    """Check every identity; `seed` draws only the random f(xy) pairs."""
    rng = random.Random(seed)
    failures: list[str] = []

    def report(label: str, ok: bool, detail: str = ""):
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {label}{'  ' + detail if detail else ''}")
        if not ok:
            failures.append(label)

    for name, pmc in (("torus", torus_pmc()), ("split2", split_pmc(2))):
        t0 = time.monotonic()
        k = pmc.genus
        basis = az_basis(pmc)
        n = len(basis)
        products, diffs = basis.products, basis.differentials
        prod = products.get

        # d^2 = 0 on every summand, each read from its own table
        tables = [diffs if i == 0 else AZBasis(pmc, i).differentials
                  for i in range(-k, k + 1)]
        ok = not any(_sum(d[r] for r in d[a]) for d in tables for a in range(len(d)))
        report(f"{name}: d^2 = 0 on A(Z, i) for all i", ok)
        report(f"{name}: dim A(Z, 0)", True, f"= {n}")

        idem, by_left = basis.idempotents, basis.by_left
        ok = all(idem[a][1] == idem[b][0] and
                 all(idem[r] == (idem[a][0], idem[b][1]) for r in ab)
                 for (a, b), ab in products.items()) and all(
            idem[r] == idem[a] for a, d in enumerate(diffs) for r in d)
        report(f"{name}: products and differentials respect idempotents", ok)

        composable = [(a, b) for a in range(n) for b in by_left.get(idem[a][1], ())]
        ok = all(_sum(diffs[r] for r in prod((a, b), ())) ==
                 _sum(prod((r, b), ()) for r in diffs[a]) ^
                 _sum(prod((a, r), ()) for r in diffs[b])
                 for a, b in composable)
        report(f"{name}: Leibniz rule on all composable basis pairs "
               f"({len(composable)} pairs)", ok)

        ok, nonzero = True, 0  # on every other triple both sides are zero
        for a, b, c in _nonzero_triples(products):
            lhs = _sum(prod((r, c), ()) for r in prod((a, b), ()))
            rhs = _sum(prod((a, r), ()) for r in prod((b, c), ()))
            ok, nonzero = ok and lhs == rhs, nonzero + bool(lhs or rhs)
        report(f"{name}: associativity on every triple with a nonzero side "
               f"({nonzero} triples)", ok)

        gr = [gr_prime(el) for el in basis.elements]
        ok = all(gr[r] == gmul(gr[a], gr[b]) for (a, b), ab in products.items() for r in ab)
        report(f"{name}: gr'(ab) = gr'(a) gr'(b)", ok)

        lam_inv = gpow(lam(pmc.num_points), -1)
        ok = all(gr[r] == gmul(lam_inv, gr[a]) for a, d in enumerate(diffs) for r in d)
        report(f"{name}: gr'(da) = lambda^-1 gr'(a)", ok)

        report(f"{name}: f(lambda) = 1", f_s(lam(pmc.num_points), pmc) == 1)
        m = m_table(pmc)
        pair_chords = {(ReebChord(*pmc.points_of_pair(i)),) for i in range(1, 2 * k + 1)}
        ok = all(m[i] == 1 for i, el in enumerate(basis.elements)
                 if strands.chord_signature(pmc, min(el.terms))[0] in pair_chords)
        report(f"{name}: f(g_i) = 1 for every matched-pair chord", ok)

        pairs = ((_random_gz_element(pmc, rng), _random_gz_element(pmc, rng))
                 for _ in range(HOM_PAIRS))
        ok = all(f_s(gmul(x, y), pmc) == (f_s(x, pmc) + f_s(y, pmc)) % 2 for x, y in pairs)
        report(f"{name}: f(xy) = f(x) + f(y) on {HOM_PAIRS} random pairs", ok)

        ok = all((m[a] + m[b] - m[r]) % 2 == 0 for (a, b), ab in products.items() for r in ab)
        report(f"{name}: m(ab) = m(a) + m(b)", ok)

        ok = all((m[r] - m[a] - 1) % 2 == 0 for a, d in enumerate(diffs) for r in d)
        report(f"{name}: m(da) = m(a) + 1", ok)

        if verbose:
            print(f"      ({name} done in {time.monotonic() - t0:.2f}s)")

    return failures


def az_sign_report(pmc: PointedMatchedCircle) -> dict:
    """Optional cross-check of the intersection-sign grading against m.

    The sign grading on middle-summand algebra elements is pinned by three
    properties: idempotents have sign +1, products multiply signs, and the
    differential flips them.  Those properties determine the signs only up
    to an independent choice on each element that is neither an idempotent,
    a product, nor a differential; for the candidate s = (-1)^m we report
    which relations hold and which elements stay gauge, rather than
    asserting a convention the combinatorial data cannot pin.
    """
    basis = az_basis(pmc)
    els, products = basis.elements, basis.products
    m = m_table(pmc)
    idempotents_positive = all(m[i] == 0 for i in basis.idempotent_indices)
    differentials = {a: d for a, d in enumerate(basis.differentials) if d}
    # (-1)^m is read on every summand of a product or a differential
    failures = [("product", str(els[a]), str(els[b])) for (a, b), ab in products.items()
                if any(m[r] != (m[a] + m[b]) % 2 for r in ab)]
    failures += [("differential", str(els[a])) for a, d in differentials.items()
                 if any(m[r] == m[a] for r in d)]

    # fixed-point closure of the elements whose sign the relations pin down:
    # a relation whose result is one basis element fixes its one unknown sign
    determined = set(basis.idempotent_indices)
    relations = [(a, b, ab[0]) for (a, b), ab in products.items() if len(ab) == 1]
    relations += [(a, d[0]) for a, d in differentials.items() if len(d) == 1]
    changed = True
    while changed:
        changed = False
        for rel in relations:
            if sum(x in determined for x in rel) == len(rel) - 1:
                determined.update(rel)
                changed = True
    return {
        "basis_size": len(basis),
        "idempotents_positive": idempotents_positive,
        "product_relations_checked": len(products),
        "differential_relations_checked": len(differentials),
        "relation_failures": failures,
        "gauge_elements": len(basis) - len(determined),
    }
