#!/usr/bin/env python3
"""Randomized determinant-enumeration duality experiment.

Generates random combinatorial bordered diagrams (torus and split genus-2
boundary, Heegaard genus up to 4) and verifies, coefficient by coefficient,
that the k-subset determinants of the signed intersection matrix match the
signed generator counts.  Also reports how often the kernel theorem happens
to hold on random (generally non-realizable) sign data, as a reminder that
the theorem is a statement about geometric diagrams.
"""

import itertools
import random
import sys

from bdecat.diagram import (BorderedDiagram, DiagramPoint,
                            cfd_class_from_determinants, duality_sign,
                            enumerated_class, homology_kernel)
from bdecat.pmc import split_pmc, torus_pmc


def random_diagram(rng, pmc, g):
    """A genus-g diagram over pmc with random signed intersection points:
    0 to 2 tries per (alpha, beta) pair, each kept with probability 0.6.
    The diagram tests import it from here."""
    k = pmc.genus
    pts, pid = [], 0
    curves = [("circle", i) for i in range(1, g - k + 1)]
    curves += [("arc", i) for i in range(1, 2 * k + 1)]
    for b in range(1, g + 1):
        for a in curves:
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.6:
                    pts.append(DiagramPoint(a, b, rng.choice([1, -1]), pid))
                    pid += 1
    return BorderedDiagram(pmc, g, g - k, pts)


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    rng = random.Random(seed)
    duality_failures = 0
    theorem_holds = theorem_cases = 0
    for _ in range(trials):
        pmc = rng.choice([torus_pmc(), split_pmc(2)])
        d = random_diagram(rng, pmc, rng.randint(pmc.genus, 4))
        enum = enumerated_class(d)
        det = cfd_class_from_determinants(d)
        for s in itertools.combinations(range(1, 2 * d.k + 1), d.k):
            fs = frozenset(s)
            if enum.coefficient(fs) != det.coefficient(fs).scale(duality_sign(d, fs)):
                duality_failures += 1
                break
        hk = homology_kernel(d)
        if hk.b1_rel == 0:
            theorem_cases += 1
            target = hk.kernel_wedge.scale(hk.order)
            if enum == target or enum == -target:
                theorem_holds += 1
    print(f"{trials} random diagrams: duality failures = {duality_failures}")
    print(f"kernel theorem held on {theorem_holds}/{theorem_cases} "
          f"finite-order cases (it is only guaranteed for geometric data)")
    return 1 if duality_failures else 0


if __name__ == "__main__":
    sys.exit(main())
