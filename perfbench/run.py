#!/usr/bin/env python3
"""The bdecat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload selftest|staircase|diagram \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports bdecat from ./src and
writes only under ./.perfbench.  It prints one line per metric with its
unit, then, as its last line, a JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  perfbench/README.md says what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# At least 3 set-ups, and more (up to 9) until they add up to 4 s, so that
# the median of a short set-up rests on more samples.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 4.0
# Shared hosts drift in speed by tens of percent within a minute, and a
# pure-Python loop drifts with them.  The ops of a unit that runs in this
# process are scaled by CAL_REFERENCE_S over the mean loop time measured just
# before and just after the unit, so times read as seconds at one fixed
# speed.  Ops in child processes are not scaled: measured here, the loop
# does not follow their speed, and scaling them added noise.
CAL_REFERENCE_S = 0.004
CAL_ROUNDS = 20
REQUIRED = ("src/bdecat/cli.py", "scripts/selfcheck.py", "fixtures/cfa_core.json",
            "fixtures/cfa_trefoil_pattern.json", "fixtures/cfa_winding2.json",
            "fixtures/cfa_with_ops.json")

END_TO_END = (("op_s_p50", "s"), ("work_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
WORK_UNIT = {"selftest": "selftests verified", "staircase": "CFD generators verified",
             "diagram": "diagram generators enumerated and checked"}

# Span self times are "<span>_s"; the rest name their source below.
PER_LAYER = (
    ("cli.import_s", "s/op"),
    ("strands.basis_of_AZ_s", "s/op"),
    ("strands.basis_elements", "count/op"),
    ("strands.multiply_s", "s/op"),
    ("strands.multiply_pairs", "count/op"),
    ("strands.multiply_nonzero_ratio", "ratio"),
    ("strands.differential_s", "s/op"),
    ("strands.differential_calls", "count/op"),
    ("grading.gr_prime_s", "s/op"),
    ("grading.f_s_s", "s/op"),
    ("grading.f_s_calls", "count/op"),
    ("grading.m_of_s", "s/op"),
    ("grading.m_of_calls", "count/op"),
    ("grading.m_of_distinct_ratio", "ratio"),
    ("selfcheck.run_selfcheck_s", "s/op"),
    ("serialize.parse_s", "s/op"),
    ("serialize.dump_s", "s/op"),
    ("cfk2cfd.build_cfd_s", "s/op"),
    ("cfk2cfd.verify_a1_s", "s/op"),
    ("dmodules.check_type_d_s", "s/op"),
    ("dmodules.delta_edges", "count/op"),
    ("torus.check_bigrading_s", "s/op"),
    ("dmodules.box_tensor_s", "s/op"),
    ("dmodules.box_complex_generators", "count/op"),
    ("dmodules.check_ainf_s", "s/op"),
    ("dmodules.is_bounded_s", "s/op"),
    ("dmodules.is_bounded_failures", "count/op"),
    ("grothendieck.class_of_s", "s/op"),
    ("grothendieck.pair_s", "s/op"),
    ("grothendieck.normalize_s", "s/op"),
    ("satellite.check_formula_s", "s/op"),
    ("cli.cfd_from_cfk_s", "s/op"),
    ("cli.pair_box_s", "s/op"),
    ("cli.satellite_s", "s/op"),
    ("cli.unattributed_s", "s/op"),
    ("diagram.enumerate_generators_s", "s/op"),
    ("diagram.generators", "count/op"),
    ("grothendieck.class_accumulate_s", "s/op"),
    ("diagram.determinants_s", "s/op"),
    ("diagram.det_calls", "count/op"),
    ("diagram.homology_kernel_s", "s/op"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)
# Untraced times each traced op records itself.
EXTRA = {"cli.import_s", "selfcheck.run_selfcheck_s", "cli.cfd_from_cfk_s",
         "cli.pair_box_s", "cli.satellite_s", "cli.unattributed_s"}
# Counts: (tracer counter, or None for the span's call count; span name).
COUNTS = {
    "strands.basis_elements": ("basis_elements", None),
    "strands.multiply_pairs": (None, "strands.multiply"),
    "strands.differential_calls": (None, "strands.differential"),
    "grading.f_s_calls": (None, "grading.f_s"),
    "grading.m_of_calls": (None, "grading.m_of"),
    "dmodules.delta_edges": ("delta_edges", None),
    "dmodules.box_complex_generators": ("box_complex_generators", None),
    "dmodules.is_bounded_failures": ("is_bounded_failures", None),
    "diagram.generators": ("generators", None),
    "diagram.det_calls": (None, "diagram.determinants"),
}
# Ratios: (numerator counter, span whose calls are the base).
RATIOS = {
    "strands.multiply_nonzero_ratio": ("multiply_nonzero", "strands.multiply"),
    "grading.m_of_distinct_ratio": ("m_of_distinct", "grading.m_of"),
}


def calibration_seconds(rounds: int = 1) -> float:
    """Seconds per round of a fixed pure-Python loop of dict, set, tuple and
    integer work."""
    t0 = perf_counter()
    table, seen, acc = {}, set(), 0
    for i in range(3000 * rounds):
        k = i * 7919 % 1009
        table[k] = table.get(k, 0) + i
        seen ^= {k & 255}
        acc += len(seen) * (i & 7)
        acc ^= hash(tuple(sorted((k, i & 15, acc & 31)))) & 1023
    return (perf_counter() - t0) / rounds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("selftest", "staircase", "diagram"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _make(args, workdir: Path):
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](ROOT, args.seed, workdir)


def setup_probe(args) -> None:
    """One set-up in this fresh interpreter: import, inputs, warm-up op."""
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = _make(args, workdir)
        workload.prepare()
        workload.warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def speed_probe() -> float:
    """Loop seconds per round, after one round that absorbs the slow start
    of a process that has just woken from waiting."""
    calibration_seconds()
    return calibration_seconds(CAL_ROUNDS)


def setup_seconds(args) -> list[float]:
    """Wall seconds of fresh set-ups, each with interpreter start.  They are
    not scaled: process start and imports do not track the loop."""
    out: list[float] = []
    least, most = SETUP_REPEATS
    while len(out) < least or (sum(out) < SETUP_SECONDS and len(out) < most):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds)],
                       cwd=ROOT, check=True, timeout=60)
        out.append(perf_counter() - t0)
    return out


def run_units(workload, seconds: float, run_one) -> tuple[list, float]:
    """Run whole units until about `seconds` have passed: a unit starts only
    while half a mean unit still fits.  Returns (result, speed scale) pairs."""
    probe = speed_probe if workload.in_process else (lambda: CAL_REFERENCE_S)
    results, t0, units = [], perf_counter(), 0
    before = probe()
    for unit in workload.units():
        done = [run_one(len(results) + i, inp) for i, inp in enumerate(unit)]
        after = probe()
        results += [(result, 2 * CAL_REFERENCE_S / (before + after)) for result in done]
        before = after
        units += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / units / 2 >= seconds:
            return results, elapsed
    raise AssertionError("unreachable: units() is endless")


def ranked(timed) -> list[float]:
    """Op times in rank order; a failed op ranks slower than every success."""
    return [t for ok, t in sorted(timed, key=lambda x: (not x[0], x[1]))]


def median_rank(times: list[float]) -> float:
    n = len(times)
    return (times[(n - 1) // 2] + times[n // 2]) / 2


def end_to_end(args, scaled_ops, elapsed: float, setups, in_process: bool):
    ops = [op for op, _ in scaled_ops]
    times = ranked((op.status == "ok", op.seconds * scale) for op, scale in scaled_ops)
    raw = ranked((op.status == "ok", op.seconds) for op in ops)
    n = len(times)
    p50 = median_rank(times)
    failed = sum(op.status != "ok" for op in ops)
    work = sum(op.work for op in ops if op.status == "ok")
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "op_s_p50": p50,
        "work_per_s": work / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    w = args.workload
    scaling = (f"op times scaled to the reference speed (median scale "
               f"{statistics.median(scale for _, scale in scaled_ops):.3f})"
               if in_process else "op times unscaled (ops run in child processes)")
    print(f"{w}: {n} ops in {elapsed:.2f} s, closed loop, 1 client, seed {args.seed}; "
          f"{scaling}")
    print(f"{w}.op_s_p50 = {p50:.6f} s (median of {n} ops; unscaled {median_rank(raw):.6f} s)")
    if n >= 11:
        i = n - 11
        print(f"{w}.op_s_tail = {times[i]:.6f} s (p{100 * (i + 1) / n:.1f} of {n} ops, "
              f"10 ops beyond it)")
    else:
        print(f"{w}.op_s_tail = n/a s ({n} ops; a percentile with 10 ops beyond it "
              f"needs 11)")
    print(f"{w}.work_per_s = {metrics['work_per_s']:.6f} 1/s ({work} {WORK_UNIT[w]} "
          f"in {sum(times):.3f} s of ops)")
    print(f"{w}.fail_ratio = {failed / n:.6f} ratio ({failed} of {n} ops failed)")
    print(f"{w}.setup_s = {metrics['setup_s']:.6f} s (unscaled median of "
          f"{', '.join(f'{t:.3f}' for t in setups)})")
    print(f"{w}.peak_rss_mb = {metrics['peak_rss_mb']:.3f} MB "
          f"({'this process' if in_process else 'largest child process'})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, records, tracer):
    n = len(records)
    ops_s = sum(r.op.seconds for r in records)
    plain_s = sum(r.plain_s for r in records)
    values, notes = {}, {}
    for name, unit in PER_LAYER:
        if name in EXTRA:
            total = sum(r.extra.get(name, 0.0) for r in records)
            values[name], notes[name] = total / n, f"untraced, {total:.4f} s over {n} ops"
        elif name in COUNTS:
            counter, span = COUNTS[name]
            total = tracer.counts.get(counter, 0) if counter else tracer.call_count(span)
            values[name], notes[name] = total / n, f"{total} over {n} ops"
        elif name in RATIOS:
            counter, span = RATIOS[name]
            num, base = tracer.counts.get(counter, 0), tracer.call_count(span)
            values[name], notes[name] = (num / base if base else 0.0), f"{num} / {base}"
        elif name == "trace.coverage":
            covered = sum(r.covered_s for r in records)
            values[name] = covered / ops_s
            notes[name] = f"replayed layer calls {covered:.4f} s / untraced ops {ops_s:.4f} s"
        elif name == "trace.overhead":
            traced = sum(r.traced_s for r in records)
            values[name] = traced / plain_s - 1 if plain_s else 0.0
            notes[name] = f"traced replay {traced:.4f} s / untraced replay {plain_s:.4f} s - 1"
        else:
            span = name[:-len("_s")]
            total = tracer.self_seconds(span)
            values[name] = total / n
            notes[name] = f"self time {total:.4f} s in {tracer.call_count(span)} spans over {n} ops"
    for name, unit in PER_LAYER:
        print(f"{args.workload}.{name} = {values[name]:.6g} {unit} ({notes[name]})")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a bdecat checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args)
        return 0

    setups = [] if args.trace else setup_seconds(args)
    from spans import Tracer
    from workloads import LayerHooks

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = _make(args, workdir)
        workload.prepare()
        if workload.in_process:
            workload.warm_up()
        if args.trace:
            tracer = Tracer()
            hooks = LayerHooks(tracer)

            def trace_one(i, inp):
                tracer.op = i
                return workload.trace_op(inp, tracer, hooks)

            results, elapsed = run_units(workload, args.seconds, trace_one)
            records = [r for r, _ in results]
            ops = [r.op for r in records]
            print(f"{args.workload}: {len(records)} traced ops in {elapsed:.2f} s, "
                  f"{len(tracer.cols['start'])} spans, seed {args.seed}")
            metrics = per_layer(args, records, tracer)
            tracer.write(str(ROOT / ".perfbench" / f"spans-{args.workload}"))
        else:
            scaled_ops, elapsed = run_units(workload, args.seconds,
                                            lambda i, inp: workload.run_op(inp))
            ops = [op for op, _ in scaled_ops]
            metrics = end_to_end(args, scaled_ops, elapsed, setups, workload.in_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op in ops:
        if op.status != "ok":
            print(f"{args.workload}: {op.status} op: {op.note}")
    print(json.dumps({"correct": not any(op.status == "wrong" for op in ops),
                      "attempted": len(ops),
                      "failed": sum(op.status != "ok" for op in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
