#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised as a BENCH_*.json.

    python3 scripts/paired_bench.py PARENT_DIR CHANGE_DIR --seeds 271-280 \
        [--workloads staircase,selftest,diagram] [--seconds 30] \
        [--out BENCH.json] [--what TEXT] [--claim TEXT]

For each seed, and each workload in turn, both checkouts run
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` from
their own root with PYTHONDONTWRITEBYTECODE=1; on odd seeds the parent runs
first, on even seeds the change.  The output holds every run and, per
workload and end-to-end metric of BENCHMARK.json, the parent and change
medians and quartiles, the pairs in which the change was better (in the
metric's `better` direction) and the parent's interquartile range relative
to its median, with `statistics.quantiles(n=4, method='inclusive')`; and per
workload whether every run was correct and how many ops each side
attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in root."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(out.stdout.strip().splitlines()[-1])


def collect(roots: dict, workloads: list[str], seeds: list[int], seconds: float) -> list[dict]:
    runs = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(roots[side], workload, seed, seconds)
                runs.append({"seed": seed, "workload": workload, "side": side,
                             "result": result})
                print(f"seed {seed} {workload} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
    return runs


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """medians and correct_and_failed, per workload, of paired runs; a pair
    is the parent and change runs of one (workload, seed)."""
    by_key = {(r["workload"], r["seed"], r["side"]): r["result"] for r in runs}
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    medians, status = {}, {}
    for w in workloads:
        seeds = sorted({s for (wl, s, _) in by_key if wl == w})
        pairs = [(by_key[w, s, "parent"], by_key[w, s, "change"]) for s in seeds]
        medians[w] = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in pairs]
            parent, change = [p for p, _ in values], [c for _, c in values]
            pq = statistics.quantiles(parent, n=4, method="inclusive")
            cq = statistics.quantiles(change, n=4, method="inclusive")
            better = sum(c < p if lower else c > p for p, c in values)
            medians[w][name] = {
                "parent_median": pq[1], "change_median": cq[1],
                "change_vs_parent": round(cq[1] / pq[1] - 1, 4),
                "change_better_pairs": f"{better}/{len(values)}",
                "parent_quartiles": pq, "change_quartiles": cq,
                "parent_iqr_rel": round((pq[2] - pq[0]) / pq[1], 4),
                "bound": metric["bound"]}
        status[w] = {
            "pairs": len(pairs),
            "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
            "failed": {side: sum(pair[k]["failed"] for pair in pairs)
                       for k, side in enumerate(SIDES)},
            "attempted": {side: sum(pair[k]["attempted"] for pair in pairs)
                          for k, side in enumerate(SIDES)}}
    return {"medians": medians, "correct_and_failed": status}


def result_text(summary: dict) -> str:
    """One line per workload: each metric's median change, better pairs
    and parent IQR."""
    lines = []
    for w, metrics in summary["medians"].items():
        parts = [f"{name} {m['change_vs_parent']:+.1%} ({m['change_better_pairs']}; "
                 f"parent IQR {m['parent_iqr_rel']:.1%})" for name, m in metrics.items()]
        st = summary["correct_and_failed"][w]
        lines.append(f"{w}: {', '.join(parts)}; all correct: {st['all_correct']}, "
                     f"failed {st['failed']['parent']}/{st['attempted']['parent']} -> "
                     f"{st['failed']['change']}/{st['attempted']['change']}")
    return "; ".join(lines)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=_seeds, required=True, help="a range such as 271-280")
    ap.add_argument("--workloads", help="comma-separated; default all of BENCHMARK.json")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--what", default="")
    ap.add_argument("--claim", default="")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = collect({"parent": args.parent, "change": args.change},
                   workloads, args.seeds, args.seconds)
    summary = summarize(runs, bench["end_to_end"])
    report = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "python": sys.version,
        "host": f"{platform.system()} {platform.machine()}, nproc = {os.cpu_count()}; "
                f"PYTHONDONTWRITEBYTECODE=1; seeds {args.seeds[0]}-{args.seeds[-1]}, "
                f"each running {', '.join(workloads)} in turn; odd seeds run the "
                f"parent first; quartiles by statistics.quantiles(n=4, method='inclusive')",
        "claim": args.claim,
        "result": result_text(summary),
        **summary,
        "runs": runs,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
