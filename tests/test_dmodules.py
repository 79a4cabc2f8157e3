import glob
import os
import random
import sys

import pytest
from hypothesis import given, settings

from bdecat import dmodules, grading, serialize, strands
from bdecat.cfk2cfd import build_cfd
from bdecat.dmodules import (AInfModule, AInfRelationFails, ChainComplex,
                             GradingIncompatible, ModuleGenerator,
                             StructureEquationFails, TypeDStructure,
                             box_tensor, check_ainf, check_type_d, is_bounded)
from bdecat.grothendieck import class_of, euler_of_complex, pair, substitute
from bdecat.strands import AZBasis, az_basis
from tests.conftest import (CFK_NAMES, FIXTURES, PATTERN_NAMES, load_fixture,
                            random_ainf, random_type_d)
from tests.helpers import (Unbounded, ainf_failures, box_tensor_oracle, chains,
                           delta_k, element, idempotent)
from tests.test_cfk2cfd import reduced_cfk


@pytest.fixture()
def triangle():
    return load_fixture("typed_triangle")


def test_triangle_passes(triangle):
    check_type_d(triangle)
    assert is_bounded(triangle)


def test_alexander_grading_is_stored_doubled():
    g = ModuleGenerator("x", {1}, 3, a2=-3)
    assert (g.name, g.idempotent, g.m, g.a2) == ("x", frozenset({1}), 1, -3)
    assert g == ModuleGenerator("x", [1], 1, a2=-3)
    assert ModuleGenerator("y", {1}, 1).a2 is None


def test_alexander_grading_is_keyword_only():
    """A call that passes the grading a positionally cannot halve it."""
    with pytest.raises(TypeError):
        ModuleGenerator("x", {1}, 0, 1)


def test_rho12_self_loop_is_a_valid_unbounded_structure(talg, torus):
    N = TypeDStructure(torus, [ModuleGenerator("x", {1}, 0, a2=0)],
                       [("x", talg.index["rho12"], "x")])
    check_type_d(N)
    assert not is_bounded(N)


def test_rho1_self_loop_is_rejected(talg, torus):
    with pytest.raises(ValueError):
        TypeDStructure(torus, [ModuleGenerator("x", {1}, 0, a2=0)],
                       [("x", talg.index["rho1"], "x")])


def test_two_cycle_fails_structure_equation(talg, torus):
    gens = [ModuleGenerator("x", {1}, 0, a2=0), ModuleGenerator("y", {2}, 1, a2=0)]
    N = TypeDStructure(torus, gens, [("x", talg.index["rho1"], "y"),
                                     ("y", talg.index["rho2"], "x")])
    with pytest.raises(StructureEquationFails):
        check_type_d(N)


def test_grading_violation_reported(talg, torus):
    gens = [ModuleGenerator("x", {1}, 0, a2=0), ModuleGenerator("y", {2}, 0, a2=0)]
    N = TypeDStructure(torus, gens, [("x", talg.index["rho1"], "y")])
    with pytest.raises(GradingIncompatible):
        check_type_d(N)


def test_empty_delta_is_bounded(torus):
    N = TypeDStructure(torus, [ModuleGenerator("x", {1}, 0, a2=0)], [])
    assert is_bounded(N)


def test_delta_k_iterates(triangle, talg):
    assert delta_k(triangle, "x1", 0) == {((), "x1")}
    second = delta_k(triangle, "x1", 2)
    assert len(second) == 1
    (chain, end), = second
    assert end == "x3" and len(chain) == 2
    assert talg.names[chain[0]] == "rho2"
    assert talg.names[chain[1]] == "rho1"
    # delta_n vanishes at the generator count on bounded structures
    assert not delta_k(triangle, "x1", len(triangle.generators))


def test_delta_k_guards_unbounded(talg, torus):
    N = TypeDStructure(torus, [ModuleGenerator("x", {1}, 0, a2=0)],
                       [("x", talg.index["rho12"], "x")])
    with pytest.raises(Unbounded):
        delta_k(N, "x", 5)


def test_is_bounded_matches_topological_sort():
    rng = random.Random(3)
    for _ in range(120):
        N = random_type_d(rng)
        # Kahn's algorithm as an independent acyclicity oracle
        adj = {n: set() for n in N.generators}
        indeg = {n: 0 for n in N.generators}
        for src, _, dst in N.delta:
            if dst not in adj[src]:
                adj[src].add(dst)
                indeg[dst] += 1
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        assert is_bounded(N) == (seen == len(N.generators))


def test_induced_differential_on_a_tensor_n_squares_to_zero(triangle, torus):
    """check_type_d passing means d = mu_1 ox id + (mu_2 ox id) o delta
    squares to zero on A ox N, computed directly over F2."""
    from bdecat.strands import basis_of_AZ, differential_generator, multiply_generators

    dmap = triangle.delta_map()
    elements = triangle.basis.elements

    def differential(keys):
        """F2 derivative of a set of (strands generator, module name) keys."""
        out = set()
        for g, x in keys:
            for dg in differential_generator(g):
                out ^= {(dg, x)}
            for i, y in dmap[x]:
                for b in elements[i].terms:
                    prod = multiply_generators(g, b)
                    if prod is not None:
                        out ^= {(prod, y)}
        return out

    for a_el in basis_of_AZ(torus, 0):
        for x in triangle.generators:
            start = {(g, x) for g in a_el.terms}
            assert not differential(differential(start))


def test_check_ainf_accepts_fixtures():
    for name in PATTERN_NAMES:
        check_ainf(load_fixture(name).cfa)


def _m_parity(M, x, ids, y):
    """m(y) - m(x) - sum m(a_i) - n + 1 mod 2, 0 on a well-graded op."""
    m = grading.m_table(M.pmc)
    gens = M.generators
    return (gens[y].m - gens[x].m - sum(m[i] for i in ids) - len(ids) + 1) % 2


def test_every_shipped_op_is_graded_and_lowers_box_m():
    """Each recorded op of each pattern satisfies the parity, so every box
    differential with the triangle lowers m by 1."""
    ops = 0
    for name in PATTERN_NAMES:
        M = load_fixture(name).cfa
        for x, ids, y in M.ops:
            assert _m_parity(M, x, ids, y) == 0, (name, x, ids, y)
            ops += 1
        box_tensor(M, load_fixture("typed_triangle"))
    assert ops


def test_check_ainf_rejects_a_mis_graded_op(talg, torus, split2):
    """One m flipped on an op's output: the relations still hold, the
    grading check catches it, on m2 (torus) and m3 (split2)."""
    for M in (load_fixture("cfa_with_ops").cfa, _split2_m3(split2)):
        (x, ids, y), = M.ops
        gy = M.generators[y]
        flipped = ModuleGenerator(y, gy.idempotent, 1 - gy.m, a2=gy.a2)
        gens = [flipped if g.name == y else g for g in M.generators.values()]
        bad = AInfModule(M.pmc, gens, M.ops)
        assert _m_parity(bad, x, ids, y) == 1
        assert not list(dmodules._failures(bad))
        with pytest.raises(GradingIncompatible,
                           match=rf"^op m{len(ids) + 1}: {x} -> {y} "):
            check_ainf(bad)


def test_check_ainf_rejects_broken_square(talg, torus):
    # m2(u, rho12) = u cannot satisfy the n = 3 relation: the composite
    # m2(m2(u, rho12), rho12) = u survives while mu(rho12, rho12) = 0
    M = AInfModule(torus, [ModuleGenerator("u", {1}, 0, a2=0)],
                   [("u", [talg.index["rho12"]], "u")])
    with pytest.raises(AInfRelationFails):
        check_ainf(M)


def _chained_m3(talg, torus, ops):
    """A torus module on x, y, z at idempotent {2} with m3 ops (rho2, rho1)."""
    gens = [ModuleGenerator(g, {2}, 0, a2=0) for g in "xyz"]
    rho = [talg.index["rho2"], talg.index["rho1"]]
    return AInfModule(torus, gens, [(x, rho, y) for x, y in ops])


def test_check_ainf_reaches_arity_2a_minus_1(talg, torus):
    # m3(m3(x; rho2, rho1); rho2, rho1) = z is an arity-5 composite of two
    # arity-3 operations; nothing cancels it, so the relation fails there
    M = _chained_m3(talg, torus, [("x", "y"), ("y", "z")])
    assert M.max_arity() == 3
    with pytest.raises(AInfRelationFails, match=r"arity 5 .*residual \['z'\]"):
        check_ainf(M)


def test_check_ainf_accepts_a_single_m3(talg, torus):
    check_ainf(_chained_m3(talg, torus, [("x", "y")]))


def _split2_m3(split2):
    """x at {1, 2} with m3(x; a, b) = y, a and b the first non-idempotent
    elements chaining from {1, 2}."""
    basis = AZBasis(split2, 0)
    moving = [i for i, el in enumerate(basis.elements)
              if not all(g.is_idempotent() for g in el.terms)]
    a = next(i for i in moving if basis.idempotents[i][0] == frozenset({1, 2}))
    b = next(i for i in moving if basis.idempotents[i][0] == basis.idempotents[a][1])
    gens = [ModuleGenerator("x", {1, 2}, 0, a2=0),
            ModuleGenerator("y", basis.idempotents[b][1], 1, a2=0)]
    return AInfModule(split2, gens, [("x", [a, b], "y")])


def test_the_chain_oracle_walks_the_idempotent_buckets(split2):
    basis, start = az_basis(split2), frozenset({1, 2})
    # every chain from {1, 2}, of 238^L tuples in all
    for length, count in ((0, 1), (1, 103), (2, 2929), (3, 57079)):
        tuples = list(chains(basis, start, length))
        assert len(tuples) == count
        assert tuples == sorted(set(tuples))
        for ids in tuples:
            left = start
            for j in ids:
                assert basis.idempotents[j][0] == left
                left = basis.idempotents[j][1]


def test_check_ainf_checks_a_split2_m3_in_full(split2):
    # (a, b) leads from {1, 2} back to {1, 2}; arity 5 has 949 473 chains
    # from there, of which the candidates keep the recorded op squared
    M = _split2_m3(split2)
    (_, (a, b), y), = M.ops
    assert M.generators[y].idempotent == frozenset({1, 2})
    check_ainf(M)
    z = ModuleGenerator("z", {1, 2}, 0, a2=0)
    M = AInfModule(split2, [*M.generators.values(), z], [*M.ops, (y, [a, b], "z")])
    with pytest.raises(AInfRelationFails,
                       match=rf"^arity 5 at x=x, inputs \({a}, {b}, {a}, {b}\): residual \['z'\]$"):
        check_ainf(M)


def _random_module(rng, pmc, max_inputs):
    """Up to 4 generators on random idempotents and up to 4 distinct random
    ops, each a walk of up to max_inputs non-idempotent elements from x that
    ends at a generator on the walk's right idempotent."""
    basis = az_basis(pmc)
    idempotents = sorted({s for s, _ in basis.idempotents}, key=sorted)
    gens = [ModuleGenerator(f"x{i}", rng.choice(idempotents), rng.randint(0, 1), a2=0)
            for i in range(rng.randint(1, 4))]
    ops = set()
    for _ in range(rng.randint(1, 4)):
        x = rng.choice(gens)
        ids, left = [], x.idempotent
        for _ in range(rng.randint(0, max_inputs)):
            ids.append(rng.choice([j for j in basis.by_left[left]
                                   if j not in basis.idempotent_indices]))
            left = basis.idempotents[ids[-1]][1]
        ys = [g.name for g in gens if g.idempotent == left]
        if ys:
            ops.add((x.name, tuple(ids), rng.choice(ys)))
    return AInfModule(pmc, gens, sorted(ops))


def test_candidates_find_every_failing_relation_in_order(torus, split2):
    """The failing (arity, x, inputs) over the candidates are those over
    every idempotent chain, in the same order, on every shipped pattern and
    on random torus and split2 modules."""
    rng = random.Random(16)
    modules = [serialize.pattern_from_json(serialize.load_file(path)).cfa
               for path in sorted(glob.glob(os.path.join(FIXTURES, "cfa_*.json")))]
    modules += [_random_module(rng, torus, 3) for _ in range(100)]
    modules += [_random_module(rng, split2, 1) for _ in range(100)]
    failing = 0
    for M in modules:
        want = ainf_failures(M)
        assert [(len(ids) + 1, x, ids) for x, ids, _ in dmodules._failures(M)] == want
        failing += bool(want)
    assert 0 < failing < len(modules), failing


def test_check_ainf_idempotent_inputs_are_rejected(talg, torus):
    with pytest.raises(ValueError):
        AInfModule(torus, [ModuleGenerator("u", {1}, 0, a2=0)],
                   [("u", [talg.index["iota0"]], "u")])


def test_box_tensor_single_generator_pairing(torus):
    core = load_fixture("cfa_core")
    from bdecat.cfk2cfd import build_cfd
    from tests.conftest import load_fixture as lf
    cfd = build_cfd(lf("cfk_unknot"))
    C = box_tensor(core.cfa, cfd)
    assert len(C.generators) == 1
    assert not C.differential


def test_box_tensor_idempotent_matching(triangle):
    rng = random.Random(5)
    M = random_ainf(rng, n_gens=4)
    C = box_tensor(M, triangle)
    names = {(x.name, y.name)
             for x in M.generators.values() for y in triangle.generators.values()
             if x.idempotent == y.idempotent}
    assert set(C.generators) == names


def test_box_tensor_differential_and_euler(triangle):
    withops = load_fixture("cfa_with_ops")
    C = box_tensor(withops.cfa, triangle)
    chi = euler_of_complex(C)
    assert chi == pair(class_of(withops.cfa), class_of(triangle))
    # ChainComplex validated d^2 = 0 and the m drop on construction
    assert isinstance(C, ChainComplex)
    assert C.differential  # m2(w, rho2) against the rho2 arrow of x1


def test_box_tensor_is_strictly_unital(triangle):
    """cfa_winding2 records no op with an input, yet m_2(w, 1) = w still
    pairs with the triangle's x1 -1-> x3 edge."""
    C = box_tensor(load_fixture("cfa_winding2").cfa, triangle)
    arrows = {(C.generators[a].name, C.generators[b].name) for a, b in C.differential}
    assert arrows == {("w1*x1", "w1*x3"), ("w2*x1", "w2*x3")}


def test_random_type_d_draws_are_type_d_structures():
    """`random_type_d` redraws edges until the structure equation holds;
    many draws keep edges, and some a unit coefficient for the box."""
    rng = random.Random(31)
    with_edges = with_unit = 0
    for _ in range(200):
        N = random_type_d(rng)
        check_type_d(N)
        assert is_bounded(N)
        with_edges += bool(N.delta)
        with_unit += any(i in N.basis.idempotent_indices for _, i, _ in N.delta)
    assert with_edges >= 100 and with_unit >= 20


def test_box_tensor_weighted_euler(triangle):
    rng = random.Random(8)
    for _ in range(25):
        M = random_ainf(rng)
        for w in (1, 2, 3):
            C = box_tensor(M, triangle, weight=w)
            assert euler_of_complex(C) == pair(class_of(M),
                                               substitute(class_of(triangle), w))


WEIGHTS = (-1, 0, 1, 2)


def _box_outcome(box, M, N, weight):
    """The generators, in order, and the differential of M box N, or the
    type of the error its construction raised."""
    try:
        C = box(M, N, weight=weight)
    except ValueError as exc:
        return type(exc)
    return list(C.generators.items()), C.differential


def _assert_box_is_the_oracle(M, N):
    """box_tensor builds the complex the all-pairs oracle builds at every
    weight; returns its differential, the same at every weight, or None
    when the construction fails."""
    for w in WEIGHTS:
        got = _box_outcome(box_tensor, M, N, w)
        assert got == _box_outcome(box_tensor_oracle, M, N, w)
    return got[1] if isinstance(got, tuple) else None


def _patterns():
    return [load_fixture(name).cfa for name in PATTERN_NAMES]


def test_box_tensor_is_the_oracle_on_the_patterns_and_typed_fixtures(triangle):
    """Every shipped pattern against the triangle, whose 1 coefficient is a
    unit input for cfa_with_ops's m_2, and against the CFDs of the CFK
    fixtures."""
    cfds = [build_cfd(load_fixture(name)) for name in CFK_NAMES]
    nonzero = 0
    for M in _patterns():
        for N in [triangle, *cfds]:
            nonzero += bool(_assert_box_is_the_oracle(M, N))
    assert nonzero


def _diamond(talg, torus):
    """y -rho1-> p -rho2-> z and y -rho1-> q -rho2-> z: two chains with the
    same labels and ends, which cancel over F2."""
    rho = talg.index
    return TypeDStructure(torus, [ModuleGenerator(n, {i}, 0, a2=0)
                                  for n, i in (("y", 1), ("p", 2), ("q", 2), ("z", 1))],
                          [("y", rho["rho1"], "p"), ("y", rho["rho1"], "q"),
                           ("p", rho["rho2"], "z"), ("q", rho["rho2"], "z")])


def test_box_tensor_is_the_oracle_on_random_modules(talg, torus):
    """Random modules with m_1 ops only, with m_1 and m_2 ops, and with ops
    up to m_3, against random type D structures, the triangle and a
    diamond of cancelling chains; some of the complexes fail their d^2 or
    m check, and the oracle's fails the same way."""
    rng = random.Random(25)
    triangle, diamond = load_fixture("typed_triangle"), _diamond(talg, torus)
    outcomes = []
    for max_inputs in (0, 1, 1, 2):
        for _ in range(60):
            M = _random_module(rng, torus, max_inputs)
            for N in (triangle, diamond, random_type_d(rng)):
                _assert_box_is_the_oracle(M, N)
                outcomes.append(_box_outcome(box_tensor, M, N, 1))
    built = [o for o in outcomes if isinstance(o, tuple)]
    assert any(diff for _, diff in built) and len(built) < len(outcomes)


@settings(max_examples=40, deadline=None)
@given(reduced_cfk())
def test_box_tensor_is_the_oracle_on_generated_staircases(cfk):
    N = build_cfd(cfk)
    for M in _patterns():
        _assert_box_is_the_oracle(M, N)


def test_pmc_mismatch(split2, triangle):
    from bdecat.dmodules import PmcMismatch
    M = AInfModule(split2, [ModuleGenerator("u", {1, 3}, 0, a2=0)], [])
    with pytest.raises(PmcMismatch):
        box_tensor(M, triangle)


def test_a_coefficient_outside_a_z0_is_rejected(torus):
    # one of the two sections I({1}), I({3}) of iota0: it has the idempotents
    # of iota0, but is no sum of A(Z, 0) basis elements, so no basis index
    # carries it
    section = element([idempotent(4, {1})])
    with pytest.raises(ValueError, match="not in the span of A"):
        AZBasis(torus, 0).decompose(section)


def _typed_fixtures_and_built_cfds():
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    typed = [obj for kind, obj in map(serialize.read, paths) if kind == "typed"]
    assert typed
    return typed + [build_cfd(load_fixture(name)) for name in CFK_NAMES]


def test_check_type_d_multiplies_nothing(monkeypatch):
    """Products and differentials come from the basis tables, which the
    first check builds once per algebra; the second multiplies nothing."""
    structures = _typed_fixtures_and_built_cfds()
    for N in structures:
        check_type_d(N)
    calls = []
    for name in ("multiply", "differential"):
        original = getattr(strands, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)
        for module in (strands, dmodules):  # also a copy imported by name
            monkeypatch.setattr(module, name, counting, raising=False)
    for N in structures:
        check_type_d(N)
    assert calls == []


def test_eval_m_reads_idempotents_by_index(talg, monkeypatch):
    M = load_fixture("cfa_with_ops").cfa
    inputs = [()] + [(i,) for i in range(len(M.basis))] + [ids for _, ids, _ in M.ops]
    want = {(x, ids): set(M.eval_m(x, ids)) for x in M.generators for ids in inputs}
    # unitality: m_2(x, iota) = x exactly when iota is the idempotent of x
    for name, s in (("iota0", {1}), ("iota1", {2})):
        i = talg.index[name]
        for x, gx in M.generators.items():
            assert want[(x, (i,))] == ({x} if gx.idempotent == s else set())

    def banned(*args):
        raise AssertionError("eval_m called left_right_pairs")
    monkeypatch.setattr(strands, "left_right_pairs", banned)
    assert {(x, ids): set(M.eval_m(x, ids)) for x, ids in want} == want
    check_ainf(M)


def test_is_bounded_on_a_3000_generator_chain(talg, torus):
    """Deeper than the recursion limit: y0 -rho23-> y1 -rho23-> ... y2999."""
    gens = [ModuleGenerator(f"y{i}", {2}, i, a2=0) for i in range(3000)]
    chain = [(f"y{i}", talg.index["rho23"], f"y{i + 1}") for i in range(2999)]
    assert is_bounded(TypeDStructure(torus, gens, chain)) is True
    closed = chain + [("y2999", talg.index["rho23"], "y0")]
    assert is_bounded(TypeDStructure(torus, gens, closed)) is False


@pytest.mark.parametrize("i", [8, -1, "rho1"])
def test_type_d_rejects_bad_indices(talg, torus, i):
    """Out of range, or the idempotents of another pair: rho1 runs from
    iota0 to iota1, the edge from iota0 to iota0."""
    i = talg.index.get(i, i)
    with pytest.raises(ValueError):
        TypeDStructure(torus, [ModuleGenerator("x", {1}, 0, a2=0)], [("x", i, "x")])


@pytest.mark.parametrize("ids", [(8,), (-1,), ("rho2",), ("rho1", "rho1")])
def test_ainf_rejects_bad_index_tuples(talg, torus, ids):
    """Out of range, or not chaining from x at iota0 to y at iota1."""
    ids = tuple(talg.index[i] if isinstance(i, str) else i for i in ids)
    gens = [ModuleGenerator("x", {1}, 0, a2=0), ModuleGenerator("y", {2}, 1, a2=0)]
    with pytest.raises(ValueError):
        AInfModule(torus, gens, [("x", ids, "y")])


def test_a_second_reading_builds_no_element_and_computes_no_m(monkeypatch):
    """Labels, tables and m_table are built once per algebra: reading and
    checking every typed fixture and building every CFK fixture's CFD a
    second time creates no AlgebraElement and calls m_of never."""
    typed = [p for p in sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
             if serialize.sniff_kind(serialize.load_file(p)) == "typed"]
    assert typed

    def read_and_check():
        for path in typed:
            check_type_d(serialize.read(path, "typed")[1])
        for name in CFK_NAMES:
            build_cfd(load_fixture(name))  # checks the structure and its bigrading

    read_and_check()
    counts = {"AlgebraElement": 0, "m_of": 0}
    init, m_of = strands.AlgebraElement.__init__, grading.m_of

    def counting_init(self, *args):
        counts["AlgebraElement"] += 1
        init(self, *args)

    def counting_m_of(*args):
        counts["m_of"] += 1
        return m_of(*args)
    monkeypatch.setattr(strands.AlgebraElement, "__init__", counting_init)
    for name, module in list(sys.modules.items()):  # also copies imported by name
        if name.startswith("bdecat.") and hasattr(module, "m_of"):
            monkeypatch.setattr(module, "m_of", counting_m_of)
    read_and_check()
    assert counts == {"AlgebraElement": 0, "m_of": 0}
