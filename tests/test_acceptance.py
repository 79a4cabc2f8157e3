"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every comparison is exact: F2 sets, integers, and rationals throughout.
"""

import itertools
import random
import time

import pytest

from bdecat.cfk2cfd import IOTA1, build_cfd, verify_a1, verify_a2_zero
from bdecat.diagram import (cfd_class_from_determinants, duality_sign,
                            enumerated_class, h1_rel_order_oracle, verify_cfdker)
from bdecat.dmodules import (AInfModule, ModuleGenerator, TypeDStructure,
                             box_tensor, check_type_d, is_bounded)
from bdecat.grading import default_refinement, f_s, gmul, lam, m_of
from bdecat.grothendieck import (LaurentHalf, class_of, euler_of_complex,
                                 normalize_symmetric, pair, substitute)
from bdecat.pmc import ReebChord, split_pmc, torus_pmc
from bdecat.selfcheck import _random_gz_element
from bdecat.strands import basis_of_AZ, differential, multiply
from bdecat.torus import check_bigrading, torus_algebra
from tests.conftest import (CFK_NAMES, DIAGRAM_NAMES, PATTERN_NAMES,
                            load_fixture, random_ainf, random_type_d)
from scripts.duality_experiment import random_diagram
from tests.helpers import a_of, delta_k, element

PMCS = [("torus", torus_pmc()), ("split2", split_pmc(2))]


def report(n, text):
    print(f"PASS  criterion {n}: {text}")


def test_criterion_1_algebra_integrity():
    """d^2, Leibniz, associativity on A(Z, 0); dim A(Z(T^2), 0) = 8; < 5 s."""
    t0 = time.monotonic()
    rng = random.Random(1)
    assert len(basis_of_AZ(torus_pmc(), 0)) == 8
    for name, pmc in PMCS:
        k = pmc.genus
        for i in range(-k, k + 1):
            for el in basis_of_AZ(pmc, i):
                assert not differential(differential(el)), f"{name}: d^2 != 0"
        basis = basis_of_AZ(pmc, 0)
        for a in basis:
            for b in basis:
                assert differential(multiply(a, b)) == \
                    multiply(differential(a), b) + multiply(a, differential(b))
        if len(basis) ** 3 <= 1000:
            triples = itertools.product(basis, repeat=3)
        else:
            triples = (tuple(rng.choice(basis) for _ in range(3))
                       for _ in range(500))
        for a, b, c in triples:
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"algebra integrity took {elapsed:.2f}s"
    report(1, f"algebra integrity exact on torus and split2 ({elapsed:.2f}s)")


def test_criterion_2_grading_homomorphism():
    rng = random.Random(2)
    for name, pmc in PMCS:
        assert f_s(lam(pmc.num_points), pmc) == 1
        ref = default_refinement(pmc)
        for i in range(1, 2 * pmc.genus + 1):
            lo, hi = pmc.points_of_pair(i)
            el = a_of(pmc, [ReebChord(lo, hi)], 0)
            for term in el.terms:
                assert m_of(element([term]), pmc, ref) == 1
        for _ in range(1000):
            x = _random_gz_element(pmc, rng)
            y = _random_gz_element(pmc, rng)
            assert f_s(gmul(x, y), pmc) == (f_s(x, pmc) + f_s(y, pmc)) % 2
        basis = basis_of_AZ(pmc, 0)
        m = {el: m_of(el, pmc, ref) for el in basis}
        for a in basis:
            d = differential(a)
            if d:
                assert m_of(d, pmc, ref) == (m[a] + 1) % 2
            for b in basis:
                ab = multiply(a, b)
                if ab:
                    assert m_of(ab, pmc, ref) == (m[a] + m[b]) % 2
    report(2, "f(lambda) = f(g_i) = 1; f additive on 1000 random pairs per "
              "circle; m multiplicative and differential-compatible")


def _shipped_pairs():
    triangle = load_fixture("typed_triangle")
    cfds = {name: build_cfd(load_fixture(name)) for name in CFK_NAMES}
    for pname in PATTERN_NAMES:
        pc = load_fixture(pname)
        for dname, cfd in cfds.items():
            yield pc.cfa, cfd, pc.winding
        yield pc.cfa, triangle, pc.winding


def test_criterion_3_pairing_theorem():
    count = 0
    for M, N, w in _shipped_pairs():
        chi = euler_of_complex(box_tensor(M, N, weight=w))
        assert chi == pair(class_of(M), substitute(class_of(N), w))
        count += 1
    rng = random.Random(3)
    randomized = with_differential = 0
    while randomized < 110:
        M = random_ainf(rng)
        N = random_type_d(rng)
        w = rng.choice([1, 1, 2, 3])
        box = box_tensor(M, N, weight=w)
        chi = euler_of_complex(box)
        assert chi == pair(class_of(M), substitute(class_of(N), w))
        randomized += 1
        with_differential += bool(box.differential)
    # the randomized half must not become vacuous: some boxes have arrows
    assert with_differential >= randomized // 10
    report(3, f"chi(M box N) = [M].[N] on {count} shipped and "
              f"{randomized} randomized pairs, {with_differential} of them "
              f"with a nonempty differential")


FROZEN_DELTAS = {
    "cfk_unknot": {0: 1},
    "cfk_trefoil_right": {2: 1, 0: -1, -2: 1},
    "cfk_trefoil_left": {2: 1, 0: -1, -2: 1},
    "cfk_figure8": {2: -1, 0: 3, -2: -1},
    "cfk_torus34": {6: 1, 4: -1, 0: 1, -4: -1, -6: 1},
    "cfk_cable2m1_left_trefoil": {4: 1, 0: -1, -4: 1},
}


def test_criterion_4_knot_complement_decategorification():
    for name in CFK_NAMES:
        cfk = load_fixture(name)
        cfd = build_cfd(cfk)
        check_type_d(cfd)
        check_bigrading(cfd, 0)
        delta = verify_a1(cfd, cfk)
        expected = normalize_symmetric(LaurentHalf(
            tuple(sorted(FROZEN_DELTAS[name].items()))))
        assert normalize_symmetric(delta) == expected
        verify_a2_zero(cfd)
        census = {}
        for g in cfd.generators.values():
            if g.idempotent == IOTA1:
                census.setdefault(g.a2, [0, 0])[g.m] += 1
        assert all(even == odd for even, odd in census.values())
    report(4, "a1 component equals Delta_K and the a2 component vanishes "
              "with per-exponent m balance for all six companions")


def test_criterion_5_satellite_formula():
    from bdecat.satellite import (PatternClass, check_satellite_formula,
                                  satellite_polynomial)
    core = load_fixture("cfa_core")
    for name in CFK_NAMES:
        cfk = load_fixture(name)
        res = satellite_polynomial(core, build_cfd(cfk))
        assert res == normalize_symmetric(verify_a1(build_cfd(cfk), cfk))
    triples = 0
    for pname, cname in itertools.product(PATTERN_NAMES, CFK_NAMES):
        check_satellite_formula(load_fixture(pname), load_fixture(cname))
        triples += 1
    # P-component perturbations never change the satellite polynomial
    rng = random.Random(5)
    companion = build_cfd(load_fixture("cfk_torus34"))
    for pname in PATTERN_NAMES:
        base = load_fixture(pname)
        reference = satellite_polynomial(base, companion)
        for _ in range(5):
            gens = list(base.cfa.generators.values())
            gens.append(ModuleGenerator(f"pert{rng.randint(0, 10**6)}",
                                        {2}, rng.randint(0, 1),
                                        a2=rng.randint(-4, 4)))
            perturbed = PatternClass(AInfModule(torus_pmc(), gens, []),
                                     base.winding)
            assert satellite_polynomial(perturbed, companion) == reference
    report(5, f"satellite identity exact on {triples} (pattern, companion) "
              "pairs and invariant under P-perturbations")


def test_criterion_6_kernel_theorem():
    for name in DIAGRAM_NAMES:
        d = load_fixture(name)
        hk, _ = verify_cfdker(d)
        assert hk.order == h1_rel_order_oracle(d)
        if hk.b1_rel == 0:
            target = hk.kernel_wedge.scale(hk.order)
            cls = enumerated_class(d)
            assert cls == target or cls == -target or (not cls and not target)
        else:
            assert not enumerated_class(d)
    report(6, "span [CFD] = |H1(Y, dY)| Lambda^k ker(i*) on all eight "
              "diagram fixtures, with the SNF oracle agreeing on the order")


def test_criterion_7_determinant_enumeration_duality():
    rng = random.Random(7)
    diagrams = [load_fixture(name) for name in DIAGRAM_NAMES]
    while len(diagrams) < len(DIAGRAM_NAMES) + 60:
        pmc = rng.choice([torus_pmc(), split_pmc(2)])
        diagrams.append(random_diagram(rng, pmc, rng.randint(pmc.genus, 4)))
    for d in diagrams:
        enum = enumerated_class(d)
        det = cfd_class_from_determinants(d)
        for s in itertools.combinations(range(1, 2 * d.k + 1), d.k):
            fs = frozenset(s)
            assert enum.coefficient(fs) == \
                det.coefficient(fs).scale(duality_sign(d, fs))
    report(7, f"subset determinants match signed generator counts on "
              f"{len(diagrams)} diagrams (fixtures plus randomized)")


def _triangle_mutations(rng):
    """Single-entry mutations of the bounded triangle structure, all detectable."""
    talg = torus_algebra()
    base_gens = [("x1", {2}, 1, 0), ("x2", {1}, 1, 1), ("x3", {2}, 0, 0)]
    base_delta = [("x1", "rho2", "x2"), ("x1", "1", "x3"), ("x2", "rho1", "x3")]

    def build(gens, delta):
        coeffs = {"1": None}
        resolved = []
        mg = [ModuleGenerator(n, i, m, a2=a2) for n, i, m, a2 in gens]
        by_name = {g.name: g for g in mg}
        for src, cname, dst in delta:
            coeff = (talg.basis.by_label[((), by_name[src].idempotent)]
                     if cname == "1" else talg.index[cname])
            resolved.append((src, coeff, dst))
        N = TypeDStructure(torus_pmc(), mg, resolved)
        check_type_d(N)
        check_bigrading(N, 0)
        return N

    build(base_gens, base_delta)  # the unmutated structure passes

    mutations = []
    # coefficient replacements within the same idempotent pair
    swap = {("x1", "1", "x3"): ("x1", "rho23", "x3"),
            ("x2", "rho1", "x3"): ("x2", "rho123", "x3")}
    for old, new in swap.items():
        delta = [new if e == old else e for e in base_delta]
        mutations.append((base_gens, delta))
    # rerouted arrows break the idempotent compatibility
    mutations.append((base_gens, [("x1", "rho2", "x3"), base_delta[1],
                                  base_delta[2]]))
    mutations.append((base_gens, [base_delta[0], ("x1", "1", "x2"),
                                  base_delta[2]]))
    mutations.append((base_gens, [base_delta[0], base_delta[1],
                                  ("x2", "rho1", "x2")]))
    # grading flips
    for idx in range(3):
        gens = [(n, i, (m + 1) % 2 if j == idx else m, a2)
                for j, (n, i, m, a2) in enumerate(base_gens)]
        mutations.append((gens, base_delta))
    # Alexander shifts
    for idx in range(3):
        gens = [(n, i, m, a2 + 2 if j == idx else a2)
                for j, (n, i, m, a2) in enumerate(base_gens)]
        mutations.append((gens, base_delta))
    # added entries with a nonvanishing residual
    mutations.append((base_gens, base_delta + [("x3", "rho2", "x2")]))
    mutations.append((base_gens, base_delta + [("x3", "rho23", "x1")]))

    picks = [mutations[rng.randrange(len(mutations))] for _ in range(20)]
    return build, picks


def test_criterion_8_structural_properties():
    triangle = load_fixture("typed_triangle")
    check_type_d(triangle)
    assert is_bounded(triangle)

    rng = random.Random(8)
    build, picks = _triangle_mutations(rng)
    rejected = 0
    for gens, delta in picks:
        with pytest.raises(Exception):
            build(gens, delta)
        rejected += 1
    assert rejected == 20

    # is_bounded agrees with an independent topological sort, and delta_n
    # vanishes at the generator count on bounded structures
    talg = torus_algebra()
    checked = 0
    for _ in range(150):
        if rng.random() < 0.5:
            N = random_type_d(rng)
        else:  # allow cycles: arbitrary edges, plus rho12/rho23 self-loops
            n = rng.randint(1, 5)
            gens = [ModuleGenerator(f"z{i}", {rng.choice([1, 2])}, 0, a2=0)
                    for i in range(n)]
            delta = []
            for src in gens:
                for dst in gens:
                    if rng.random() < 0.25:
                        name = {(1, 1): "rho12", (2, 2): "rho23",
                                (1, 2): "rho1", (2, 1): "rho2"}[
                                    (min(src.idempotent), min(dst.idempotent))]
                        delta.append((src.name, talg.index[name], dst.name))
            N = TypeDStructure(torus_pmc(), gens, delta)
        adj = {v: set() for v in N.generators}
        indeg = {v: 0 for v in N.generators}
        for src, _, dst in N.delta:
            if dst not in adj[src]:
                adj[src].add(dst)
                indeg[dst] += 1
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        acyclic = seen == len(N.generators)
        assert is_bounded(N) == acyclic
        if acyclic:
            for x in N.generators:
                assert not delta_k(N, x, len(N.generators))
        checked += 1
    report(8, f"triangle structure accepted, 20 mutations rejected, boundedness "
              f"cross-checked on {checked} randomized structures")
