"""The three workloads: seeded inputs, one untraced op, and a traced replay.

A workload yields its inputs in units.  A unit is one op (selftest) or one
cycle that holds one input from every size class (staircase, diagram), so
that every run, whatever its seed, measures the same mix of sizes.  Runs
stop only between units.

Ops run one at a time: a closed loop with one client in one process.  The
clock of an op stops at the program's verdict; the benchmark's own oracle
checks it afterwards, off the clock, so the oracle's cost never dilutes a
change in the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import bdecat.cli  # noqa: F401  (loads every layer, as the console script does)
from bdecat import (cfk2cfd, cli, diagram, dmodules, grothendieck, pmc, satellite,
                    selfcheck, serialize, strands)

import diagrams
import oracles
import staircase
from spans import NullTracer, Tracer

OP_TIMEOUT_S = 60


@dataclass
class Op:
    seconds: float
    status: str  # "ok", "failed" (no verdict, bad exit code, exception) or "wrong"
    work: int = 0
    note: str = ""
    parts: dict = field(default_factory=dict)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(root: Path) -> float:
    """`import bdecat.cli` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import bdecat.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
    return float(proc.stdout)


def clear_caches() -> None:
    """Empty every functools cache in bdecat, as in a fresh interpreter."""
    for name, module in list(sys.modules.items()):
        if name == "bdecat" or name.startswith("bdecat."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and \
                        getattr(value, "__module__", "").startswith("bdecat"):
                    value.cache_clear()


class LayerHooks:
    """Counts taken at the traced call boundaries, with per-op distinct sets."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.m_of_args: set = set()

    def end_op(self) -> None:
        self.tracer.count("m_of_distinct", len(self.m_of_args))
        self.m_of_args.clear()

    def targets(self) -> dict:
        t = self.tracer

        cached = strands.basis_of_AZ  # the lru_cache itself, before install()
        misses = [cached.cache_info().misses]

        def basis(args, result, exc):
            now = cached.cache_info().misses
            if now > misses[0] and result is not None:
                t.count("basis_elements", len(result))
            misses[0] = now

        def multiply(args, result, exc):
            if result:
                t.count("multiply_nonzero")

        def m_of(args, result, exc):
            self.m_of_args.add(args[0])

        def check_type_d(args, result, exc):
            t.count("delta_edges", len(args[0].delta))

        def is_bounded(args, result, exc):
            if exc is not None:
                t.count("is_bounded_failures")

        def box_tensor(args, result, exc):
            if result is not None:
                t.count("box_complex_generators", len(result.generators))

        def enumerate_generators(args, result, exc):
            if result is not None:
                t.count("generators", len(result))

        parse, dump = "serialize.parse", "serialize.dump"
        return {
            "strands.basis_of_AZ": ("strands.basis_of_AZ", basis),
            "strands.multiply": ("strands.multiply", multiply),
            "strands.differential": ("strands.differential", None),
            "grading.gr_prime": ("grading.gr_prime", None),
            "grading.f_s": ("grading.f_s", None),
            "grading.m_of": ("grading.m_of", m_of),
            "serialize.load_file": (parse, None),
            "serialize.cfk_from_json": (parse, None),
            "serialize.pattern_from_json": (parse, None),
            "serialize.type_d_from_json": (parse, None),
            "serialize.type_d_to_json": (dump, None),
            "serialize.class_to_json": (dump, None),
            "serialize.laurent_to_json": (dump, None),
            "serialize.dumps": (dump, None),
            "cfk2cfd.build_cfd": ("cfk2cfd.build_cfd", None),
            "cfk2cfd.verify_a1": ("cfk2cfd.verify_a1", None),
            "cfk2cfd.verify_a2_zero": ("cfk2cfd.verify_a2_zero", None),
            "dmodules.check_type_d": ("dmodules.check_type_d", check_type_d),
            "dmodules.check_ainf": ("dmodules.check_ainf", None),
            "dmodules.is_bounded": ("dmodules.is_bounded", is_bounded),
            "dmodules.box_tensor": ("dmodules.box_tensor", box_tensor),
            "torus.check_bigrading": ("torus.check_bigrading", None),
            "grothendieck.class_of": ("grothendieck.class_of", None),
            "grothendieck.pair": ("grothendieck.pair", None),
            "grothendieck.normalize_symmetric": ("grothendieck.normalize", None),
            "diagram.enumerate_generators": ("diagram.enumerate_generators",
                                             enumerate_generators),
            # enumerated_class minus its enumeration child is the class
            # accumulation: one ExteriorClass sum per generator.
            "diagram.enumerated_class": ("grothendieck.class_accumulate", None),
            "diagram.cfd_class_from_determinants": ("diagram.cfd_class_from_determinants",
                                                    None),
            "diagram.det_int": ("diagram.determinants", None),
            "diagram.homology_kernel": ("diagram.homology_kernel", None),
        }


@dataclass
class TraceRecord:
    """One traced op: the untraced op, the replay untraced and traced, and
    the share of the op the replay covers."""

    op: Op
    covered_s: float
    plain_s: float
    traced_s: float
    extra: dict = field(default_factory=dict)


class ReplayMismatch(Exception):
    """A replayed result disagrees with the oracle."""


def _timed(fn, tracer, failures=(RecursionError,)) -> float:
    """Seconds fn(tracer) takes; an exception in `failures` ends it early,
    as it ends the untraced op (the is_bounded hook counts it)."""
    t0 = perf_counter()
    try:
        fn(tracer)
    except failures:
        pass
    return perf_counter() - t0


def _traced(tracer: Tracer, hooks: LayerHooks, fn) -> float:
    tracer.install(hooks.targets())
    try:
        return _timed(fn, tracer)
    finally:
        tracer.uninstall()
        hooks.end_op()


class Workload:
    name = ""
    in_process = True
    prepared_units = 1

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self._stream = self.stream()
        self._prepared: list = []

    def stream(self):
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate the inputs of the first units; later ones come lazily
        from the same seeded stream."""
        self._prepared = [next(self._stream) for _ in range(self.prepared_units)]

    def units(self):
        yield from self._prepared
        yield from self._stream


class Selftest(Workload):
    """`python scripts/selfcheck.py <seed>` in a fresh interpreter per op."""

    name = "selftest"
    in_process = False

    def stream(self):
        for i in itertools.count(1):
            yield [self.seed * 1000 + i]

    def warm_up(self) -> None:
        self.run_op(self.seed * 1000)  # index 0 is never timed

    def run_op(self, s: int) -> Op:
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "scripts/selfcheck.py", str(s)],
                                  cwd=self.root, env=_env(self.root),
                                  capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Op(perf_counter() - t0, "failed", note="timeout")
        seconds = perf_counter() - t0
        problems = oracles.check_selftest(proc.returncode, proc.stdout)
        if not problems:
            return Op(seconds, "ok", work=1)
        claimed = proc.returncode == 0 or any(p.startswith("FAIL") for p in problems)
        return Op(seconds, "wrong" if claimed else "failed", note="; ".join(problems)[:300])

    def trace_op(self, s: int, tracer: Tracer, hooks: LayerHooks) -> TraceRecord:
        op = self.run_op(s)
        t_import = import_seconds(self.root)
        clear_caches()
        t0 = perf_counter()
        cold = selfcheck.run_selfcheck(verbose=False, seed=s)
        t_cold = perf_counter() - t0
        t0 = perf_counter()
        warm = selfcheck.run_selfcheck(verbose=False, seed=s)
        t_warm = perf_counter() - t0
        clear_caches()
        traced: list = []

        def replay(tr):
            with tr.span("selfcheck.run_selfcheck"):
                traced.extend(selfcheck.run_selfcheck(verbose=False, seed=s))

        t_traced = _traced(tracer, hooks, replay)
        if cold or warm or traced:
            op = Op(op.seconds, "wrong", note=f"in-process selfcheck failed: {cold or warm or traced}")
        return TraceRecord(op, t_import + t_cold, t_cold, t_traced,
                           {"cli.import_s": t_import, "selfcheck.run_selfcheck_s": t_warm})


# A cycle is PASSING_PER_CYCLE knots with 180-220 CFD generators, then one
# knot above the recursion depth of is_bounded.  One size for every passing
# op, and many ops, put many samples under the median of a run.
PASSING_GENERATORS = (180, 220)
PASSING_PER_CYCLE = 8
DEEP_GENUS = (500, 560)
DEEP_GENERATORS = (2200, 2600)
PATTERNS = ("cfa_core.json", "cfa_trefoil_pattern.json", "cfa_winding2.json",
            "cfa_with_ops.json")


def staircase_class(generators: tuple[int, int], genus: tuple[int, int]) -> list[tuple[int, int]]:
    """Torus knots T(p,q) with CFD generator count and genus in the ranges."""
    members = []
    for p, q in staircase.torus_knots(*genus):
        cfk = staircase.staircase(staircase.torus_alexander(p, q))
        if generators[0] <= staircase.cfd_generator_count(cfk) <= generators[1]:
            members.append((p, q))
    return members


class Staircase(Workload):
    """cfd-from-cfk, pair --box and satellite through cli.run on one torus
    knot staircase (or its mirror) and one shipped pattern."""

    name = "staircase"
    prepared_units = 8

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.patterns = {name: serialize.load_file(str(root / "fixtures" / name))
                         for name in PATTERNS}
        self.cfk_path = str(workdir / "cfk.json")
        self.cfd_path = str(workdir / "cfd.json")
        super().__init__(root, seed, workdir)

    def stream(self):
        rng = random.Random(f"staircase-{self.seed}")
        lo, hi = PASSING_GENERATORS
        # CFD generators = CFK generators + 4 genus, and 1 + 2 genus bounds
        # the CFK generators, so the genus lies in [(lo - 1) / 6, hi / 4].
        passing = staircase_class(PASSING_GENERATORS, ((lo - 1) // 6, hi // 4))
        deep = staircase_class(DEEP_GENERATORS, DEEP_GENUS)
        classes = []
        for knots in (passing, deep):
            variants = [(p, q, mirror, pattern) for p, q in knots
                        for mirror in (False, True) for pattern in PATTERNS]
            rng.shuffle(variants)
            classes.append(variants)
        passing, deep = classes
        # Inputs repeat only after every variant ran: 184 passing, 784 deep.
        for cycle in itertools.count():
            start = cycle * PASSING_PER_CYCLE
            yield [self._input(*passing[(start + i) % len(passing)])
                   for i in range(PASSING_PER_CYCLE)] + \
                  [self._input(*deep[cycle % len(deep)])]

    def _input(self, p: int, q: int, mirror: bool, pattern: str) -> dict:
        delta = staircase.torus_alexander(p, q)
        cfk = staircase.staircase(delta, mirror)
        winding = int(self.patterns[pattern].get("winding", 1))
        case = oracles.StaircaseCase(delta, staircase.cfd_generator_count(cfk),
                                     self.patterns[pattern], winding)
        return {"knot": f"T({p},{q}){' mirror' if mirror else ''}", "genus": staircase.torus_genus(p, q),
                "cfk": cfk, "pattern": str(self.root / "fixtures" / pattern),
                "winding": winding, "case": case}

    def warm_up(self) -> None:
        # T(2,5): 13 CFD generators, below every timed size class.
        self.run_op(self._input(2, 5, False, "cfa_with_ops.json"))


    @staticmethod
    def _cli(argv: list[str]) -> tuple[int | None, str, float, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception as exc:  # the op fails; the run goes on
            return None, "", perf_counter() - t0, f"{type(exc).__name__} in {argv[0]}"
        return code, out.getvalue(), perf_counter() - t0, err.getvalue().strip()[:200]

    def run_op(self, inp: dict) -> Op:
        cfk_path, cfd_path = self.cfk_path, self.cfd_path
        with open(cfk_path, "w") as fh:
            json.dump(inp["cfk"], fh)
        w = str(inp["winding"])
        commands = [("cli.cfd_from_cfk_s", ["cfd-from-cfk", cfk_path, "--json"]),
                    ("cli.pair_box_s", ["pair", inp["pattern"], cfd_path, "--box",
                                        "--weight", w, "--json"]),
                    ("cli.satellite_s", ["satellite", inp["pattern"], cfk_path, "--json"])]
        outputs, parts = [], {}
        t0 = perf_counter()
        for metric, argv in commands:
            code, text, seconds, note = self._cli(argv)
            parts[metric] = seconds
            if code != 0:
                return Op(perf_counter() - t0, "failed", parts=parts,
                          note=f"{inp['knot']} genus {inp['genus']}: exit {code} {note}")
            if metric == "cli.cfd_from_cfk_s":
                with open(cfd_path, "w") as fh:
                    fh.write(text)
            outputs.append(text)
        seconds = perf_counter() - t0
        case = inp["case"]
        try:
            cfd, paired, sat = (json.loads(text) for text in outputs)
            problems = case.check_cfd(cfd) + case.check_pair(paired) + case.check_satellite(sat)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            return Op(seconds, "wrong", parts=parts, note=f"{inp['knot']}: {'; '.join(problems)}")
        return Op(seconds, "ok", work=case.cfd_generators, parts=parts)

    def replay(self, inp: dict, tr) -> None:
        """The layer calls each command needs, made once, in command order,
        on the CFK file run_op wrote."""
        cfk_path, cfd_path = self.cfk_path, self.cfd_path
        w = inp["winding"]
        cfk = serialize.cfk_from_json(serialize.load_file(cfk_path))
        cfd = cfk2cfd.build_cfd(cfk)
        delta_a1 = cfk2cfd.verify_a1(cfd, cfk)
        cfk2cfd.verify_a2_zero(cfd)
        out = serialize.type_d_to_json(cfd)
        out["class"] = serialize.class_to_json(grothendieck.class_of(cfd))
        out["alexander_polynomial"] = serialize.laurent_to_json(delta_a1)
        out["bounded"] = dmodules.is_bounded(cfd)
        with open(cfd_path, "w") as fh:
            fh.write(serialize.dumps(out))

        pc = serialize.pattern_from_json(serialize.load_file(inp["pattern"]))
        N = serialize.type_d_from_json(serialize.load_file(cfd_path))
        dmodules.check_ainf(pc.cfa)
        dmodules.check_type_d(N)
        product = grothendieck.pair(grothendieck.class_of(pc.cfa),
                                    grothendieck.substitute(grothendieck.class_of(N), w))
        chi = grothendieck.euler_of_complex(dmodules.box_tensor(pc.cfa, N, weight=w))
        serialize.dumps({"pairing": serialize.laurent_to_json(product),
                         "euler": serialize.laurent_to_json(chi), "equal": chi == product})

        pc = serialize.pattern_from_json(serialize.load_file(inp["pattern"]))
        cfk = serialize.cfk_from_json(serialize.load_file(cfk_path))
        dmodules.check_ainf(pc.cfa)
        q, p = satellite.decompose(pc)
        cfd = cfk2cfd.build_cfd(cfk)
        delta_k = cfk2cfd.verify_a1(cfd, cfk)
        with tr.span("satellite.check_formula"):
            lhs = grothendieck.normalize_symmetric(grothendieck.pair(
                grothendieck.class_of(pc.cfa),
                grothendieck.substitute(grothendieck.class_of(cfd), w)))
            rhs = grothendieck.normalize_symmetric(q * grothendieck.substitute(delta_k, w))
        serialize.dumps({"Q": serialize.laurent_to_json(q),
                         "P": serialize.laurent_to_json(p),
                         "satellite": serialize.laurent_to_json(rhs.poly)})
        problems = []
        if oracles.from_json(serialize.laurent_to_json(delta_a1)) != inp["case"].delta:
            problems.append("replayed a1 component differs from Delta")
        if chi != product:
            problems.append("replayed box tensor differs from the pairing")
        if lhs != rhs or oracles.from_json(serialize.laurent_to_json(rhs.poly)) \
                != inp["case"].satellite:
            problems.append("replayed satellite formula differs from the oracle")
        if problems:
            raise ReplayMismatch(f"{inp['knot']}: {'; '.join(problems)}")

    def trace_op(self, inp: dict, tracer: Tracer, hooks: LayerHooks) -> TraceRecord:
        op = self.run_op(inp)
        extra = dict(op.parts)
        try:
            t_plain = _timed(lambda tr: self.replay(inp, tr), NullTracer())
            t_traced = _traced(tracer, hooks, lambda tr: self.replay(inp, tr))
        except ReplayMismatch as exc:
            return TraceRecord(Op(op.seconds, "wrong", note=str(exc)), 0.0, 0.0, 0.0, extra)
        extra["cli.unattributed_s"] = op.seconds - t_plain
        return TraceRecord(op, t_plain, t_plain, t_traced, extra)


# Genus 4-7 on each boundary; density from diagrams.density at this target,
# then a draw is kept only if its generator count lies in the band, so that
# ops are alike in size and a run's median does not hinge on a few draws.
DIAGRAM_SLOTS = tuple((k, g) for k in (1, 2, 3) for g in (4, 5, 6, 7))
DIAGRAM_TARGET = 2500
DIAGRAM_BAND = (2000, 2500)


class Diagram(Workload):
    """enumerated_class, cfd_class_from_determinants and homology_kernel on
    a seeded random bordered diagram, with the duality check of
    scripts/duality_experiment.py."""

    name = "diagram"
    prepared_units = 6

    def _draw(self, rng, k: int, g: int) -> dict:
        lam = diagrams.density(k, g, DIAGRAM_TARGET)
        while True:
            points = diagrams.random_points(rng, k, g, lam)
            signed, counts = diagrams.matrices(k, g, points)
            n = diagrams.count_generators(k, g, counts)
            if DIAGRAM_BAND[0] <= n <= DIAGRAM_BAND[1]:
                return {"k": k, "genus": g, "points": points, "signed": signed,
                        "generators": n}

    def stream(self):
        rng = random.Random(f"diagram-{self.seed}")
        while True:
            yield [self._draw(rng, k, g) for k, g in DIAGRAM_SLOTS]

    def warm_up(self) -> None:
        self.run_op(self._draw(random.Random(f"diagram-warm-up-{self.seed}"), 2, 4))

    @staticmethod
    def compute(inp: dict):
        k, g = inp["k"], inp["genus"]
        circle = pmc.torus_pmc() if k == 1 else pmc.split_pmc(k)
        d = diagram.BorderedDiagram(circle, g, g - k, [
            diagram.DiagramPoint((kind, idx), beta, sign, i)
            for i, (kind, idx, beta, sign) in enumerate(inp["points"])])
        enum = diagram.enumerated_class(d)
        det = diagram.cfd_class_from_determinants(d)
        hk = diagram.homology_kernel(d)
        dual = all(enum.coefficient(s) == det.coefficient(s).scale(diagram.duality_sign(d, s))
                   for s in diagrams.subsets(k))
        return enum, det, hk, dual

    @staticmethod
    def _integers(exterior_class, k: int) -> dict | None:
        """Each k-subset's coefficient as an integer; None if one is not a
        constant."""
        out = {}
        for s in diagrams.subsets(k):
            coeffs = dict(exterior_class.coefficient(s).coeffs)
            if set(coeffs) - {0}:
                return None
            out[s] = coeffs.get(0, 0)
        return out

    def run_op(self, inp: dict) -> Op:
        t0 = perf_counter()
        try:
            enum, det, hk, dual = self.compute(inp)
        except Exception as exc:  # the op fails; the run goes on
            return Op(perf_counter() - t0, "failed", note=f"{type(exc).__name__}: {exc}"[:300])
        seconds = perf_counter() - t0
        k, g = inp["k"], inp["genus"]
        enum_i, det_i = self._integers(enum, k), self._integers(det, k)
        if not dual:
            problems = ["program duality check failed"]
        elif enum_i is None or det_i is None:
            problems = ["class coefficient is not a constant"]
        else:
            problems = oracles.check_diagram(k, g, inp["signed"], enum_i, det_i, hk.order)
        if problems:
            return Op(seconds, "wrong", note=f"k={k} g={g}: {'; '.join(problems)}"[:300])
        return Op(seconds, "ok", work=inp["generators"])

    def trace_op(self, inp: dict, tracer: Tracer, hooks: LayerHooks) -> TraceRecord:
        op = self.run_op(inp)
        t_plain = _timed(lambda tr: self.compute(inp), None, ())
        t_traced = _traced(tracer, hooks, lambda tr: self.compute(inp))
        return TraceRecord(op, t_plain, t_plain, t_traced)


WORKLOADS = {w.name: w for w in (Selftest, Staircase, Diagram)}
