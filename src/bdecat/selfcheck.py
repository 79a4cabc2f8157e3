"""Exhaustive algebra checks for the torus and split genus-2 circles: d^2 = 0
on every summand, Leibniz, associativity, gr' and m on every nonzero product
and differential of A(Z, 0), read from its `AZBasis` tables; f_s on random
grading pairs; and f(lambda) = f(g_i) = 1.

The product table comes from the chord labels of the basis elements
(`AZBasis.product`), and the differentials from strand diagrams, so the
algebra identities test the label rule against the diagram differential.
Leibniz and associativity sum each side over the pairs, or triples, of
indices that the tables reach from a nonzero entry; a pair or triple that no
side reaches has every side 0, so every one is covered.  The Leibniz line
counts the composable pairs, those where the right idempotent of a is the
left idempotent of b; on any other pair every side is 0, since every
differential keeps the idempotents of its input and every product has the
idempotents (left(a), right(b)), which the line "products and differentials
respect idempotents" checks on the tables.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

from .grading import (GradingElement, _pair_chord_data, f_s, ginv, gmul,
                      gr_prime, lam, m_table)
from .pmc import PointedMatchedCircle, split_pmc, torus_pmc
from .strands import AZBasis, az_basis

HOM_PAIRS = 1000


def _random_gz_element(pmc, rng) -> GradingElement:
    """sum_i c_i g_i over the pair chords, each c_i drawn from -2..2, with a
    Maslov component in (1/2)Z drawn from 7 values.

    randint(-2, 2) and randint(-3, 3), like rng.choice over 5 or 7 values,
    draw through Random._randbelow: getrandbits(3), drawn again while out of
    range.  Drawing that way here keeps their random stream, as
    test_the_f_pairs_are_the_randint_draws_for_seeds_0_to_4 checks.  Every
    point lies in one matched pair, so the half-integer points come in
    pairs, j lands in (1/2)Z, and 4j, their number mod 4, meets the
    quarter-integer constraint: the element is built unchecked."""
    ends, _ = _pair_chord_data(pmc)
    bits = rng.getrandbits
    jumps = [0] * (pmc.num_points + 1)  # alpha_p - alpha_{p-1} at each point p
    half_pts = 0
    for lo, hi in ends:
        c = bits(3)
        while c >= 5:
            c = bits(3)
        jumps[lo] += c - 2
        jumps[hi] -= c - 2
        half_pts += 2 * (c & 1)
    j = bits(3)
    while j >= 7:
        j = bits(3)
    return GradingElement._make((half_pts % 4 + 4 * (j - 3),
                                 tuple(itertools.accumulate(jumps[1:-1]))))


def _sum(parts) -> set[int]:
    """The F2 sum of basis-index tuples."""
    total: set[int] = set()
    for part in parts:
        total.symmetric_difference_update(part)
    return total


def _odd(terms: list) -> set:
    """The F2 sum of a list of terms; a list without repeats, the usual
    case, is its own."""
    once = set(terms)
    return once if len(once) == len(terms) else _sum((t,) for t in terms)


def _after(products) -> dict:
    """a -> [(b, ab)] over the nonzero products, b ascending."""
    after = defaultdict(list)
    for (a, b), ab in products.items():
        after[a].append((b, ab))
    return dict(after)


def _leibniz(basis: AZBasis) -> bool:
    """Whether d(ab) = d(a) b + a d(b) on every pair of basis elements.

    For each a the three sums are spread over the b that the tables reach
    from a nonzero entry; every other b has three zero sides."""
    diffs, d_of = basis.differentials, basis.d_preimages
    after = _after(basis.products)
    for a, da in enumerate(diffs):
        row = after.get(a, ())
        lhs = [(b, x) for b, ab in row for r in ab for x in diffs[r]]
        rhs = [(b, x) for r in da for b, rb in after.get(r, ()) for x in rb]
        rhs += [(b, x) for r, ar in row for b in d_of.get(r, ()) for x in ar]
        if _odd(lhs) != _odd(rhs):
            return False
    return True


def _associativity(basis: AZBasis) -> tuple[bool, int]:
    """Whether (ab)c = a(bc) on every triple of basis elements, and how many
    triples have a nonzero side.

    For each a both sides are spread over the (b, c) that the table reaches
    from a nonzero product of a; on every other triple both sides are 0."""
    after, made_of = _after(basis.products), basis.factorizations
    ok, nonzero = True, 0
    for row in after.values():
        lhs = _odd([(b, c, x) for b, ab in row for r in ab
                    for c, rc in after.get(r, ()) for x in rc])
        rhs = _odd([(b, c, x) for r, ar in row for b, c in made_of.get(r, ()) for x in ar])
        ok = ok and lhs == rhs
        nonzero += len({(b, c) for b, c, _ in lhs | rhs})
    return ok, nonzero


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
        k = pmc.genus
        basis = az_basis(pmc)
        n = len(basis)
        products, diffs = basis.products, basis.differentials

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

        composable = sum(len(by_left.get(t, ())) for _, t in idem)
        ok = _leibniz(basis)
        report(f"{name}: Leibniz rule on all composable basis pairs "
               f"({composable} pairs)", ok)

        ok, nonzero = _associativity(basis)
        report(f"{name}: associativity on every triple with a nonzero side "
               f"({nonzero} triples)", ok)

        gr = [gr_prime(el) for el in basis.elements]
        ok = all(gr[r] == gmul(gr[a], gr[b]) for (a, b), ab in products.items() for r in ab)
        report(f"{name}: gr'(ab) = gr'(a) gr'(b)", ok)

        lam_inv = ginv(lam(pmc.num_points))
        ok = all(gr[r] == gmul(lam_inv, gr[a]) for a, d in enumerate(diffs) for r in d)
        report(f"{name}: gr'(da) = lambda^-1 gr'(a)", ok)

        report(f"{name}: f(lambda) = 1", f_s(lam(pmc.num_points), pmc) == 1)
        m = m_table(pmc)
        pair_chords = {(pmc.points_of_pair(i),) for i in range(1, 2 * k + 1)}
        ok = all(m[i] == 1 for i, (rho, _) in enumerate(basis.labels) if rho in pair_chords)
        report(f"{name}: f(g_i) = 1 for every matched-pair chord", ok)

        pairs = ((_random_gz_element(pmc, rng), _random_gz_element(pmc, rng))
                 for _ in range(HOM_PAIRS))
        ok = all(f_s(gmul(x, y), pmc) == (f_s(x, pmc) + f_s(y, pmc)) % 2 for x, y in pairs)
        report(f"{name}: f(xy) = f(x) + f(y) on {HOM_PAIRS} random pairs", ok)

        ok = all((m[a] + m[b] - m[r]) % 2 == 0 for (a, b), ab in products.items() for r in ab)
        report(f"{name}: m(ab) = m(a) + m(b)", ok)

        ok = all((m[r] - m[a] - 1) % 2 == 0 for a, d in enumerate(diffs) for r in d)
        report(f"{name}: m(da) = m(a) + 1", ok)

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
