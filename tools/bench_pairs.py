"""Run perfbench on a parent commit and on this checkout in alternating pairs,
and write the end-to-end metrics of both sides to a BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT_REF --workload W --seeds A-B --out BENCH_n.json

Each pair runs both sides on one seed, from A to B, alternating which side runs
first. Every run starts from a fresh copy of its side's files: the parent's
from `git archive PARENT_REF`, this checkout's from the files git tracks or
would track (uncommitted edits included). A run is each side's own

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

with S the `run_seconds` of this checkout's BENCHMARK.json. The file holds
`about`, `parent` and `machine`, and under `workloads.W` the seeds, the
number of pairs, per end-to-end metric each side's median and quartiles
(inclusive method), in how many pairs the change read lower and whether a gain
may be claimed (`rule_met`: lower in at least 9 of 10 pairs, and the medians
apart by more than the parent's interquartile range), and the raw `runs`. An
existing file keeps its other workloads and keys, so one file can collect
several workloads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_side(side: str, parent_ref: str, dest: Path) -> None:
    if side == "parent":
        tarfile.open(fileobj=io.BytesIO(git("archive", parent_ref))).extractall(dest, filter="data")
        return
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_side(side: str, parent_ref: str, workload: str, seed: int, seconds: float,
             metrics: list[str]) -> dict:
    """One perfbench run from a fresh copy; its counts and end-to-end metrics."""
    with tempfile.TemporaryDirectory(prefix=f"bench-{side}-") as tmp:
        copy_side(side, parent_ref, Path(tmp))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{side} run on seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    final = json.loads(proc.stdout.splitlines()[-1])
    return {"failed": final["failed"], "attempted": final["attempted"], "correct": final["correct"],
            **{m: round(final["metrics"][m]["value"], 4) for m in metrics}}


def summarise(runs: list[dict], metrics: list[str]) -> dict:
    """Per metric, each side's median and quartiles, the pairs in which the
    change read lower, and `rule_met`: the change read lower in at least 9 of
    10 pairs, and its median lies below the parent's by more than the
    parent's interquartile range."""
    out = {}
    for m in metrics:
        out[m] = {}
        quartiles = {}
        for side in SIDES:
            values = [r[side][m] for r in runs]
            q1, median, q3 = quartiles[side] = statistics.quantiles(values, n=4, method="inclusive")
            out[m][side] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        lower = sum(r["change"][m] < r["parent"][m] for r in runs)
        out[m]["change_lower_in_pairs"] = f"{lower}/{len(runs)}"
        (p1, p_median, p3), (_, c_median, _) = quartiles["parent"], quartiles["change"]
        out[m]["rule_met"] = 10 * lower >= 9 * len(runs) and p_median - c_median > p3 - p1
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, both included; at least two seeds")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        parser.error("--seeds must name at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"--workload must be one of the workloads in BENCHMARK.json, not {args.workload!r}")
    metrics = [m["name"] for m in spec["end_to_end"]]
    report = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    report["about"] = (
        "End-to-end metrics of perfbench/run.py at the parent commit and at the change, written by "
        f"tools/bench_pairs.py. Each run: python3 perfbench/run.py --workload W --seed N --seconds "
        f"{spec['run_seconds']} --trace 0, from a fresh copy of each side's files (the parent by git "
        "archive); each pair runs both sides on one seed, alternating which side runs first. "
        "Quartiles by the inclusive method; change_lower_in_pairs counts strictly lower readings; "
        "rule_met: lower in at least 9 of 10 pairs and the change's median below the parent's by "
        "more than the parent's interquartile range.")
    report["parent"] = git("rev-parse", "--short", args.parent_ref).decode().strip()
    report["machine"] = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
                         "python": platform.python_version(), "platform": platform.platform()}
    runs = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0], "parent": None, "change": None}
        for side in order:
            run[side] = run_side(side, args.parent_ref, args.workload, seed, spec["run_seconds"], metrics)
        print(json.dumps(run), file=sys.stderr)
        runs.append(run)
        if len(runs) >= 2:  # rewritten after every pair, so a broken series keeps what it ran
            report.setdefault("workloads", {})[args.workload] = {
                "seeds": seeds[:len(runs)], "pairs": len(runs), "metrics": summarise(runs, metrics),
                "runs": runs}
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
