"""Exhaustive algebra checks for the torus and split genus-2 circles.

These mirror the acceptance-critical identities: d^2 = 0 and the Leibniz
rule on every basis pair, associativity, multiplicativity of gr', the f_s
homomorphism on random grading pairs, and the normalization values
f(lambda) = f(g_i) = 1.
"""

from __future__ import annotations

import random
import time

from . import strands
from .grading import (GradingElement, NotInGZ, _odd_jumps, _pair_chord_data,
                      default_refinement, f_s, gmul, gpow, gr_prime, lam, m_of)
from .pmc import split_pmc, torus_pmc
from .strands import basis_of_AZ, differential, multiply


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
    return GradingElement.from_j4(half_pts % 4 + 4 * rng.randint(-3, 3), alpha)


def run_selfcheck(verbose: bool = True, seed: int = 0,
                  assoc_samples: int = 600, hom_samples: int = 1000) -> list[str]:
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
        # d^2 = 0 on every summand
        ok = True
        for i in range(-k, k + 1):
            for el in basis_of_AZ(pmc, i):
                if differential(differential(el)):
                    ok = False
        report(f"{name}: d^2 = 0 on A(Z, i) for all i", ok)

        basis = basis_of_AZ(pmc, 0)
        report(f"{name}: dim A(Z, 0)", True, f"= {len(basis)}")

        ok = all(differential(multiply(a, b)) ==
                 multiply(differential(a), b) + multiply(a, differential(b))
                 for a in basis for b in basis)
        report(f"{name}: Leibniz rule on all basis pairs", ok)

        if len(basis) ** 3 <= 2000:
            triples = [(a, b, c) for a in basis for b in basis for c in basis]
        else:
            triples = [tuple(rng.choice(basis) for _ in range(3))
                       for _ in range(assoc_samples)]
        ok = all(multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
                 for a, b, c in triples)
        report(f"{name}: associativity ({len(triples)} triples)", ok)

        ref = default_refinement(pmc)
        ok = True
        for a in basis:
            for b in basis:
                ab = multiply(a, b)
                if ab:
                    if gr_prime(ab) != gmul(gr_prime(a), gr_prime(b)):
                        ok = False
        report(f"{name}: gr'(ab) = gr'(a) gr'(b)", ok)

        lam_inv = gpow(lam(pmc.num_points), -1)
        ok = all(gr_prime(differential(a)) == gmul(lam_inv, gr_prime(a))
                 for a in basis if differential(a))
        report(f"{name}: gr'(da) = lambda^-1 gr'(a)", ok)

        report(f"{name}: f(lambda) = 1", f_s(lam(pmc.num_points), pmc) == 1)
        ok = True
        for i in range(1, 2 * k + 1):
            for el in basis:
                sig = {strands.chord_signature(pmc, g)[0] for g in el.terms}
                chords = next(iter(sig))
                if len(chords) == 1 and \
                        (chords[0].start, chords[0].end) == pmc.points_of_pair(i):
                    if m_of(el, pmc, ref) != 1:
                        ok = False
        report(f"{name}: f(g_i) = 1 for every matched-pair chord", ok)

        ok = True
        for _ in range(hom_samples):
            x = _random_gz_element(pmc, rng)
            y = _random_gz_element(pmc, rng)
            if f_s(gmul(x, y), pmc) != (f_s(x, pmc) + f_s(y, pmc)) % 2:
                ok = False
        report(f"{name}: f(xy) = f(x) + f(y) on {hom_samples} random pairs", ok)

        m_table = {el: m_of(el, pmc, ref) for el in basis}
        ok = all((m_table[a] + m_table[b] - m_of(multiply(a, b), pmc, ref)) % 2 == 0
                 for a in basis for b in basis if multiply(a, b))
        report(f"{name}: m(ab) = m(a) + m(b)", ok)

        ok = all((m_of(differential(a), pmc, ref) - m_table[a] - 1) % 2 == 0
                 for a in basis if differential(a))
        report(f"{name}: m(da) = m(a) + 1", ok)

        if verbose:
            print(f"      ({name} done in {time.monotonic() - t0:.2f}s)")

    return failures
