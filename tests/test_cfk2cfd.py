import pytest
from hypothesis import given, settings, strategies as st

from bdecat.cfk2cfd import (A2NonZero, Arrow, CFKComplex, CFKGenerator,
                            CFKInvariantViolation, IOTA0, IOTA1, build_cfd,
                            verify_a1, verify_a2_zero)
from bdecat.dmodules import check_type_d, is_bounded
from bdecat.grothendieck import LaurentHalf, class_of
from bdecat.torus import check_bigrading, torus_algebra
from tests.conftest import CFK_NAMES, load_fixture
from tests.helpers import t2


@pytest.fixture(params=CFK_NAMES)
def cfk(request):
    return load_fixture(request.param)


def iota_counts(cfd):
    gens = cfd.generators.values()
    return (sum(1 for g in gens if g.idempotent == IOTA0),
            sum(1 for g in gens if g.idempotent == IOTA1))


def test_build_is_well_formed_and_bigraded(cfk):
    cfd = build_cfd(cfk)
    check_type_d(cfd)
    check_bigrading(cfd, 0)


def test_generator_counts(cfk):
    cfd = build_cfd(cfk)
    n0, n1 = iota_counts(cfd)
    assert n0 == len(cfk.generators)
    expected = sum(a.length for a in cfk.vertical)
    expected += sum(a.length for a in cfk.horizontal)
    expected += 2 * abs(cfk.tau)
    assert n1 == expected


def test_unknot_structure():
    cfd = build_cfd(load_fixture("cfk_unknot"))
    assert len(cfd.delta) == 1
    src, i, dst = cfd.delta[0]
    assert src == dst == "x"
    assert torus_algebra().names[i] == "rho12"
    assert class_of(cfd).coefficient(IOTA0) == LaurentHalf.one()


def test_trefoil_counts_match_spec():
    cfd = build_cfd(load_fixture("cfk_trefoil_right"))
    assert iota_counts(cfd) == (3, 4)


def test_figure8_counts_match_spec():
    cfd = build_cfd(load_fixture("cfk_figure8"))
    assert iota_counts(cfd) == (5, 4)


def test_bounded_iff_tau_nonzero(cfk):
    # the tau = 0 unstable chain is the rho12 self-loop at xi_v = xi_h
    cfd = build_cfd(cfk)
    assert is_bounded(cfd) == (cfk.tau != 0 or cfk.xi_v != cfk.xi_h)


ALEXANDER = {
    "cfk_unknot": [(0, 1)],
    "cfk_trefoil_right": [(1, 1), (0, -1), (-1, 1)],
    "cfk_trefoil_left": [(1, 1), (0, -1), (-1, 1)],
    "cfk_figure8": [(1, -1), (0, 3), (-1, -1)],
    "cfk_torus34": [(3, 1), (2, -1), (0, 1), (-2, -1), (-3, 1)],
    "cfk_cable2m1_left_trefoil": [(2, 1), (0, -1), (-2, 1)],
}


@pytest.mark.parametrize("name", CFK_NAMES)
def test_verify_a1_matches_frozen_polynomials(name):
    cfk = load_fixture(name)
    got = verify_a1(build_cfd(cfk), cfk)
    expected = LaurentHalf.zero()
    for e, c in ALEXANDER[name]:
        expected = expected + t2(2 * e, c)
    assert got == expected
    assert got.evaluate_at_one() in (1, -1)


def test_verify_a2_zero(cfk):
    verify_a2_zero(build_cfd(cfk))


def test_verify_a2_per_exponent_balance(cfk):
    cfd = build_cfd(cfk)
    census = {}
    for g in cfd.generators.values():
        if g.idempotent == IOTA1:
            census.setdefault(g.a2, [0, 0])[g.m] += 1
    for even, odd in census.values():
        assert even == odd


def test_verify_a2_rejects_imbalance(talg, torus):
    from bdecat.dmodules import ModuleGenerator, TypeDStructure
    bad = TypeDStructure(torus, [ModuleGenerator("w", IOTA1, 0, a2=1)], [])
    with pytest.raises(A2NonZero):
        verify_a2_zero(bad)


def test_invariant_violations_rejected():
    g = [CFKGenerator("a", 0, 1), CFKGenerator("b", -1, 0),
         CFKGenerator("c", -2, -1)]
    with pytest.raises(CFKInvariantViolation):
        # b touches two vertical arrows
        CFKComplex(g, [Arrow("b", "c", 1), Arrow("a", "b", 1)],
                   [Arrow("b", "a", 1)], 1)
    with pytest.raises(CFKInvariantViolation):
        # no unique xi_v (both a and c untouched vertically)
        CFKComplex(g, [], [Arrow("b", "a", 1)], 1)
    with pytest.raises(CFKInvariantViolation):
        # Euler characteristic at t = 1 is 2, not +-1
        CFKComplex([CFKGenerator("a", 0, 0), CFKGenerator("b", 0, 0)],
                   [Arrow("a", "b", 1)], [Arrow("b", "a", 1)], 0)


def _trefoil(a_maslov=0, c_maslov=-2, vertical=1, horizontal=1, tau=1):
    """The right trefoil's staircase a <-h- b -v-> c, with one grading,
    arrow length or tau changed by the caller."""
    g = [CFKGenerator("a", a_maslov, 1), CFKGenerator("b", -1, 0),
         CFKGenerator("c", c_maslov, -1)]
    return g, [Arrow("b", "c", vertical)], [Arrow("b", "a", horizontal)], tau


def test_calibration_conflicts_rejected():
    """Each bigrading the chains need is checked when the CFKComplex is
    built, with a message naming the arrow or the unstable chain."""
    CFKComplex(*_trefoil())
    cases = [
        (_trefoil(vertical=2), "vertical b->c: alexander drop != length"),
        (_trefoil(c_maslov=-3), "vertical b->c: maslov parity"),
        (_trefoil(horizontal=2), "horizontal b->a: alexander rise != length"),
        (_trefoil(a_maslov=1), "horizontal b->a: maslov parity"),
        (_trefoil(tau=0), r"unstable chain: a\(xi_h\) != a\(xi_v\) - 2 tau"),
    ]
    for args, message in cases:
        with pytest.raises(CFKInvariantViolation, match=f"^{message}$"):
            CFKComplex(*args)


def test_distinguished_generators_share_maslov_parity():
    """xi_v and xi_h always have the parity the unstable chain needs: flip
    the Maslov grading of xi_h in each shipped complex where it is not xi_v
    and an arrow parity check rejects it."""
    flipped = 0
    for cfk in map(load_fixture, CFK_NAMES):
        if cfk.xi_h == cfk.xi_v:
            continue
        g = [CFKGenerator(x.name, x.maslov + (x.name == cfk.xi_h), x.alexander)
             for x in cfk.generators]
        with pytest.raises(CFKInvariantViolation, match="maslov parity$"):
            CFKComplex(g, cfk.vertical, cfk.horizontal, cfk.tau)
        flipped += 1
    assert flipped >= 4


def _staircase(hs):
    """The symmetric positive staircase whose horizontal arrows have lengths
    hs and whose vertical ones mirror them; with no step, the unknot."""
    gens, vertical, horizontal = [CFKGenerator("a0", 0, sum(hs))], [], []
    m, a = 0, sum(hs)
    for i, (lh, lv) in enumerate(zip(hs, reversed(hs))):
        bm, ba = m + 1 - 2 * lh, a - lh
        gens.append(CFKGenerator(f"b{i + 1}", bm, ba))
        horizontal.append(Arrow(f"b{i + 1}", f"a{i}", lh))
        m, a = bm - 1, ba - lv
        gens.append(CFKGenerator(f"a{i + 1}", m, a))
        vertical.append(Arrow(f"b{i + 1}", f"a{i + 1}", lv))
    return gens, vertical, horizontal


def _random_staircase(rng, steps):
    """A staircase of steps steps, each length drawn from rng."""
    hs = [rng.randint(1, 3) for _ in range(steps)]
    return CFKComplex(*_staircase(hs), sum(hs))


def _square(prefix, length, maslov):
    """Four generators like the figure-eight's square: s -> z horizontal and
    s -> y vertical, then z -> w vertical and y -> w horizontal, with s and w
    at Alexander grading 0 and every arrow of the given length."""
    s, y, z, w = (f"{prefix}{c}" for c in "syzw")
    gens = [CFKGenerator(s, maslov, 0), CFKGenerator(y, maslov - 1, -length),
            CFKGenerator(z, maslov - 1 + 2 * length, length),
            CFKGenerator(w, maslov - 2 + 2 * length, 0)]
    return (gens, [Arrow(s, y, length), Arrow(z, w, length)],
            [Arrow(s, z, length), Arrow(y, w, length)])


def _mirror(cfk):
    """Negate bigradings and reverse every arrow; tau flips sign."""
    gens = [CFKGenerator(g.name, -g.maslov, -g.alexander)
            for g in cfk.generators]
    vertical = [Arrow(a.dst, a.src, a.length) for a in cfk.vertical]
    horizontal = [Arrow(a.dst, a.src, a.length) for a in cfk.horizontal]
    return CFKComplex(gens, vertical, horizontal, -cfk.tau)


def _rename(cfk, old, new):
    """The complex with generator old named new."""
    def name(x):
        return new if x == old else x
    gens = [CFKGenerator(name(g.name), g.maslov, g.alexander) for g in cfk.generators]
    vertical = [Arrow(name(a.src), name(a.dst), a.length) for a in cfk.vertical]
    horizontal = [Arrow(name(a.src), name(a.dst), a.length) for a in cfk.horizontal]
    return CFKComplex(gens, vertical, horizontal, cfk.tau)


@st.composite
def reduced_cfk(draw):
    """A staircase (the one-generator unknot when it has no step) plus 0-2
    disjoint squares, arrow lengths 1-3; sometimes mirrored, so tau < 0,
    tau = 0 and tau > 0 all occur, and sometimes with a generator renamed
    to the name of a chain generator of build_cfd."""
    hs = draw(st.lists(st.integers(1, 3), max_size=3))
    gens, vertical, horizontal = _staircase(hs)
    squares = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=2))
    for k, (length, maslov) in enumerate(squares):
        g, v, h = _square(f"q{k}", length, maslov)
        gens, vertical, horizontal = gens + g, vertical + v, horizontal + h
    cfk = CFKComplex(gens, vertical, horizontal, sum(hs))
    if draw(st.booleans()):
        cfk = _mirror(cfk)
    chain_names = ["u1"] + [f"{kind}[{a.src}>{a.dst}]1"
                            for kind, arrows in (("v", cfk.vertical), ("h", cfk.horizontal))
                            for a in arrows]
    if draw(st.booleans()):
        old = draw(st.sampled_from([g.name for g in cfk.generators]))
        cfk = _rename(cfk, old, draw(st.sampled_from(chain_names)))
    return cfk


@settings(max_examples=200, deadline=None)
@given(reduced_cfk())
def test_random_staircases_and_mirrors(cfk):
    """build_cfd checks nothing; every CFD it builds passes the structure
    checks, and keeps the CFK names."""
    cfd = build_cfd(cfk)
    check_type_d(cfd)
    check_bigrading(cfd, 0)
    verify_a1(cfd, cfk)
    verify_a2_zero(cfd)
    assert is_bounded(cfd) == (cfk.tau != 0)
    assert {g.name for g in cfk.generators} <= set(cfd.generators)


def test_chain_edges_run_against_cfk_arrows():
    """Vertical chains end with rho123 out of the arrow target; horizontal
    chains end with rho2 into the target."""
    cfk = load_fixture("cfk_trefoil_right")
    cfd = build_cfd(cfk)
    names = torus_algebra().names
    edges = {(s, names[i], d) for s, i, d in cfd.delta}
    assert ("b", "rho1", "v[b>c]1") in edges
    assert ("c", "rho123", "v[b>c]1") in edges
    assert ("b", "rho3", "h[b>a]1") in edges
    assert ("h[b>a]1", "rho2", "a") in edges
    assert ("a", "rho1", "u1") in edges
    assert ("u2", "rho23", "u1") in edges
    assert ("c", "rho3", "u2") in edges
