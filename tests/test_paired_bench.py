"""The summary of `scripts/paired_bench.py` on synthetic runs; no benchmark
is started."""

import statistics

from scripts.paired_bench import _seeds, result_text, summarize

END_TO_END = [{"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _run(seed, side, op, work, correct=True, failed=0):
    return {"seed": seed, "workload": "staircase", "side": side, "result": {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"op_s_p50": {"value": op, "unit": "s"},
                    "work_per_s": {"value": work, "unit": "1/s"}}}}


def test_summary_of_paired_runs():
    parent_ops, change_ops = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 2.0, 3.0, 5.0]
    runs = []
    for seed, (p, c) in enumerate(zip(parent_ops, change_ops), start=1):
        runs += [_run(seed, "parent", p, 10 / p), _run(seed, "change", c, 10 / c,
                                                       failed=seed == 2)]
    summary = summarize(runs, END_TO_END)
    op = summary["medians"]["staircase"]["op_s_p50"]
    assert op["parent_median"] == 3.0 and op["change_median"] == 2.5
    assert op["change_vs_parent"] == round(2.5 / 3.0 - 1, 4)
    # lower is better: seeds 1, 3 and 4; seed 5 ties
    assert op["change_better_pairs"] == "3/5"
    assert op["parent_quartiles"] == statistics.quantiles(parent_ops, n=4,
                                                          method="inclusive") == [2.0, 3.0, 4.0]
    assert op["parent_iqr_rel"] == round(2.0 / 3.0, 4) and op["bound"] == 0.25
    # higher is better for work_per_s, so the same pairs win
    assert summary["medians"]["staircase"]["work_per_s"]["change_better_pairs"] == "3/5"
    status = summary["correct_and_failed"]["staircase"]
    assert status == {"pairs": 5, "all_correct": True, "failed": {"parent": 0, "change": 1},
                      "attempted": {"parent": 500, "change": 500}}
    text = result_text(summary)
    assert text.startswith("staircase: op_s_p50 -16.7% (3/5; parent IQR 66.7%), ")
    assert text.endswith("all correct: True, failed 0/500 -> 1/500")


def test_a_wrong_run_clears_all_correct():
    runs = [_run(seed, side, 1.0, 1.0, correct=(seed, side) != (2, "change"))
            for seed in (1, 2) for side in ("parent", "change")]
    assert not summarize(runs, END_TO_END)["correct_and_failed"]["staircase"]["all_correct"]


def test_seed_ranges():
    assert _seeds("271-274") == [271, 272, 273, 274] and _seeds("5") == [5]
