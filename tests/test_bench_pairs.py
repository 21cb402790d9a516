"""tools/bench_pairs.py: the summary of paired runs written to BENCH_*.json."""

import pytest

from conftest import load_tool

bench_pairs = load_tool("bench_pairs")


def summary_of(parent: list[float], change: list[float]) -> dict:
    runs = [{"seed": s, "first": "parent", "parent": {"wall_norm_s": p}, "change": {"wall_norm_s": c}}
            for s, (p, c) in enumerate(zip(parent, change))]
    return bench_pairs.summarise(runs, ["wall_norm_s"])["wall_norm_s"]


def test_summary_has_inclusive_quartiles_and_counts_strictly_lower_pairs():
    summary = summary_of([0.70, 0.80, 0.75, 0.90, 0.60], [0.65, 0.80, 0.70, 0.70, 0.50])
    assert summary["parent"] == {"median": 0.75, "q1": 0.7, "q3": 0.8}
    assert summary["change"] == {"median": 0.7, "q1": 0.65, "q3": 0.7}
    assert summary["change_lower_in_pairs"] == "4/5"  # the tie at 0.80 counts for neither side
    assert summary["rule_met"] is False  # 4 of 5 pairs is fewer than 9 of 10

    # lower in 9 of 10 pairs, and the medians 0.090 apart against a parent IQR of 0.035: met
    parent = [0.70, 0.72, 0.74, 0.68, 0.71, 0.75, 0.69, 0.73, 0.70, 0.60]
    summary = summary_of(parent, [p - 0.10 for p in parent[:9]] + [0.65])
    assert summary["change_lower_in_pairs"] == "9/10" and summary["rule_met"] is True
    # lower in 9 of 10 pairs, but the medians 0.085 apart against a parent IQR of 0.1225: not met
    parent = [0.50, 0.90, 0.55, 0.85, 0.71, 0.75, 0.69, 0.73, 0.70, 0.60]
    summary = summary_of(parent, [p - 0.10 for p in parent[:9]] + [0.65])
    assert summary["change_lower_in_pairs"] == "9/10" and summary["rule_met"] is False


@pytest.mark.parametrize("args", [["HEAD", "--workload", "nope", "--seeds", "1-2", "--out", "x.json"],
                                  ["HEAD", "--workload", "analyse_graph", "--seeds", "3", "--out", "x.json"]])
def test_bad_arguments_are_refused_before_any_run(args, tmp_path):
    args[-1] = str(tmp_path / args[-1])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(args)
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()
