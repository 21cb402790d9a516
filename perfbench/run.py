"""Benchmark of the tfmn command line on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn. Every workload runs real `tfmn <subcommand>` invocations, one fresh
interpreter per invocation, on inputs generated from --seed. Rounds of the
workload's commands repeat until --seconds are used up (at least two
untraced rounds, so that byte-identical output can be checked); raw times
are medians over rounds. Every output is checked against references
computed after the timed rounds.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, taken from rounds
run under tracer.py that alternate with untraced rounds, whose difference
is the tracing overhead. Metric names and units come from BENCHMARK.json.

On a shared host (measured on 2 vCPUs) the speed swings between a fast and
a slow state, about 2x apart for plain Python, on time scales from under a
second to minutes, and CPU time swings with it, so raw wall times of runs
made minutes apart do not agree. Every timed process is therefore bracketed
by a fixed reference computation (`reference.py`, networkx and plain
Python, no tfmn code), and its wall times are rescaled to a host on which
the reference takes REFERENCE_NOMINAL_S: the sum of a command's wall times
over the run, times REFERENCE_NOMINAL_S, over the sum of the mean reference
time around each (`normalised()`). `setup_s`, `wall_norm_s` and
`trace.overhead_s` are such normalised seconds; the raw wall times
(medians) are printed next to them and reported per command
(`cmd.<command>_s`) in traced runs. The commands are kept to a few seconds
each, so that a run holds many of them and many reference samples.
`--scale` shrinks the inputs for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable
from xml.etree import ElementTree

import networkx as nx

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "tfmn" / "data"
WORK = ROOT / ".perfbench_work"

ENTRY = "import sys; from tfmn.cli import main; sys.argv[0] = 'tfmn'; main()"
RUN_LIMIT_S = 165.0  # every run ends well inside 180 s, even if a command hangs
REFERENCE_NOMINAL_S = 0.5  # reference.py on 2 vCPUs of an idle host, Python 3.11
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3


# ---------------------------------------------------------------------------
# processes

@dataclass
class Result:
    code: int | None  # None: killed at the deadline
    wall_s: float
    max_rss_mb: float
    stderr: str


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "TFMN_LEXICON_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], cwd: Path, log: Path, timeout: float) -> Result:
    """Run one process to completion; wall time and max RSS are its own."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    return Result(None if code < 0 else code, wall, usage.ru_maxrss / 1024, stderr)


def reference(directory: Path) -> float:
    """Wall time of one run of reference.py, a fixed command-like process."""
    start = perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py"), str(directory / "reference.json")],
                   env=_env(), check=True, timeout=60)
    return perf_counter() - start


def tfmn_argv(args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-c", ENTRY, *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *args]


def strict_json(path: Path):
    """Parse a file as strict JSON: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON constant {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Command:
    metric: str  # name of its wall time, e.g. "rank_s"
    args: Callable[[Path], list[str]]  # tfmn arguments, given its output directory
    check: Callable[[Path], list[str]]  # problems in its first round's outputs


@dataclass
class Workload:
    commands: list[Command]
    inputs: dict = field(default_factory=dict)  # measured input properties
    defects: dict = field(default_factory=dict)  # known defects, counted, not failed


def _network_graph(payload: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(n["stem"] for n in payload["nodes"])
    g.add_edges_from((a, b) for a, b, _ in payload["syntactic_edges"])
    g.add_edges_from((a, b) for a, b in payload["synonym_edges"])
    return g


def graph_properties(payload: dict) -> dict:
    g = _network_graph(payload)
    sizes = sorted((len(c) for c in nx.connected_components(g)), reverse=True)
    rated = sum(n["valence_label"] != "unrated" for n in payload["nodes"])
    return {
        "nodes": len(payload["nodes"]),
        "syntactic_edges": len(payload["syntactic_edges"]),
        "synonym_edges": len(payload["synonym_edges"]),
        "components": len(sizes),
        "largest_component": sizes[0] if sizes else 0,
        "rated_share": round(rated / max(1, len(payload["nodes"])), 4),
    }


def build_zipf(work: Path, rng: random.Random, scale: float) -> Workload:
    """`tfmn build` on a Zipf corpus: ingest, stemmer and build do the work."""
    corpus = work / "corpus.txt"
    shape = gen.write_zipf_corpus(rng, DATA, corpus, max(20, int(2500 * scale)),
                                  vocabulary=max(200, int(8000 * scale)))
    words = re.findall(r"[a-z]+", corpus.read_text(encoding="utf-8").lower())
    wl = Workload(commands=[])
    wl.inputs = {**shape, "corpus_word_repeat_share": round(1 - len(set(words)) / len(words), 4)}

    def check(out: Path) -> list[str]:
        from tfmn.build import load_network

        summary = strict_json(out / "z.summary.json")
        strict_json(out / "z.network.json")
        net = load_network(out / "z.network.json")
        ElementTree.parse(out / "z.network.graphml")
        counts = (len(net.nodes), len(net.syntactic_edges), len(net.synonym_edges))
        problems = []
        if counts != (summary["nodes"], summary["syntactic_edges"], summary["synonym_edges"]):
            problems.append(f"summary counts {summary} disagree with the network {counts}")
        wl.inputs.update({
            "sentences_parsed": summary["provenance"]["sentence_count"],
            "unparsed_sentences": summary["ingest"]["unparsed_sentences"],
            "dropped_short": summary["ingest"]["dropped_short"],
            "distinct_stems": counts[0],
            "syntactic_edges": counts[1],
            "synonym_edges": counts[2],
        })
        return problems

    wl.commands.append(Command(
        "build_s",
        lambda out: ["build", "--corpus", str(corpus), "--corpus-id", "z", "--out-dir", str(out)],
        check,
    ))
    return wl


def _lexicon_stems() -> dict:
    from tfmn.lexicons import load_antonyms, load_emotion_lexicon, load_synonyms, load_valence_norms

    lex = DATA / "lexicons"
    valence = load_valence_norms(lex / "valence.csv")
    return {
        "valence": {s: (score, valence.label(s)) for s, (score, _) in valence.entries.items()},
        "emotion": sorted(load_emotion_lexicon(lex / "emotions.tsv").entries),
        "antonym": sorted(load_antonyms(lex / "antonyms.tsv").lookup),
        "synonym_pairs": sorted(load_synonyms(lex / "synonyms.tsv").pairs),
        "negations": sorted(gen.wordlist(DATA, "negations.txt")),
    }


def analyse_graph(work: Path, rng: random.Random, scale: float) -> Workload:
    """Queries on one generated graph: closeness and nx.Graph rebuilds do the work."""
    network = work / "graph.json"
    targets = gen.write_graph(rng, network, max(40, int(600 * scale)), _lexicon_stems())
    payload = strict_json(network)
    graph = _network_graph(payload)
    labels = {n["stem"]: n["valence_label"] for n in payload["nodes"]}
    wl = Workload(commands=[])
    wl.inputs = {**graph_properties(payload),
                 "aura_targets": len(targets["aura_targets"]),
                 "profile_targets": len(targets["profile_targets"])}
    net_args = ["--network", str(network)]

    def check_rank(out: Path) -> list[str]:
        largest = sorted(nx.connected_components(graph), key=lambda c: (-len(c), min(c)))[0]
        core = nx.Graph(graph.subgraph(largest))
        n = core.number_of_nodes()
        reference = sorted(((s, c * n / (n - 1)) for s, c in nx.closeness_centrality(core).items()),
                           key=lambda sc: (-sc[1], sc[0]))[:10]
        ranking = strict_json(out / "rank.json")["ranking"]
        problems = []
        if [s for s, _ in ranking] != [s for s, _ in reference]:
            problems.append(f"rank top-10 {ranking} differs from networkx {reference}")
        elif any(not math.isclose(c, r, rel_tol=1e-9) for (_, c), (_, r) in zip(ranking, reference)):
            problems.append("rank closeness values differ from networkx")
        with open(out / "rank.csv", encoding="utf-8") as fh:
            rows = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
        wl.defects["metrics.rank_csv_rows_outside_lcc"] = sum(s not in largest for s in rows)
        return problems

    def check_aura(out: Path) -> list[str]:
        reports = strict_json(out / "aura.json")
        problems = []
        if reports["unknown_targets"] or [r["target"] for r in reports["auras"]] != targets["aura_targets"]:
            problems.append("aura targets differ from the requested ones")
        for r in reports["auras"]:
            counts = {"positive": 0, "neutral": 0, "negative": 0}
            unrated = 0
            for nb in graph.neighbors(r["target"]):
                if labels[nb] == "unrated":
                    unrated += 1
                else:
                    counts[labels[nb]] += 1
            best = max(counts.values())
            winners = [k for k, v in counts.items() if v == best]
            aura = "undetermined" if best == 0 else (winners[0] if len(winners) == 1 else "mixed")
            if (r["counts"], r["unrated_neighbors"], r["aura"]) != (counts, unrated, aura):
                problems.append(f"aura of {r['target']}: {r} differs from recount {counts}, {unrated}")
        return problems

    def check_profile(out: Path) -> list[str]:
        profiles = [strict_json(p) for p in sorted(out.glob("*.profile.json"))]
        for p in sorted(out.glob("*.chart.json")):
            strict_json(p)
        wl.inputs["profiles_with_emotions"] = sum(any(p["counts"].values()) for p in profiles)
        wl.inputs["negated_contributions"] = sum(c[2] for p in profiles for c in p["contributors"])
        found = sorted(p["target"] for p in profiles)
        return [] if found == sorted(targets["profile_targets"]) else ["profile targets missing"]

    def check_communities(out: Path) -> list[str]:
        report = strict_json(out / "communities.json")
        groups: dict[int, set] = {}
        for s, cid in report["communities"].items():
            groups.setdefault(cid, set()).add(s)
        problems = []
        if set(report["communities"]) != set(graph.nodes):
            problems.append("partition does not cover the graph")
        else:
            q = nx.community.modularity(graph, list(groups.values()))
            if not math.isclose(q, report["modularity"], rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"modularity {report['modularity']} differs from networkx {q}")
        if targets["community_target"] not in report.get("target_community", []):
            problems.append("target community does not hold the target")
        return problems

    wl.commands += [
        Command("rank_s", lambda out: ["rank", *net_args, "--top-k", "10", "--out", str(out / "rank.csv")],
                check_rank),
        Command("aura_s", lambda out: ["aura", *net_args, "--targets", ",".join(targets["aura_targets"]),
                                       "--out", str(out / "aura.json")], check_aura),
        Command("profile_s", lambda out: ["profile", *net_args, "--targets",
                                          ",".join(targets["profile_targets"]), "--out-dir", str(out)],
                check_profile),
        Command("communities_s", lambda out: ["communities", *net_args, "--target",
                                              targets["community_target"],
                                              "--out", str(out / "communities.json")], check_communities),
    ]
    return wl


def null_models(work: Path, rng: random.Random, scale: float) -> Workload:
    """Null models of the bundled synthetic network and topic benchmark: rewiring does the work."""
    from tfmn.build import load_network
    from tfmn.stats import configuration_rewire

    seed = rng.randrange(1_000_000)
    realizations = max(2, int(50 * scale))
    setup = work / "setup"
    setup.mkdir()
    result = run_process(tfmn_argv(["build", "--corpus", str(DATA / "synthetic" / "corpus.txt"),
                                    "--corpus-id", "synthetic", "--out-dir", str(setup)], None),
                         work, setup / "build", 60.0)
    if result.code != 0:
        raise RuntimeError(f"set-up build of the synthetic network failed: {result.stderr[-500:]}")
    network = setup / "synthetic.network.json"
    wl = Workload(commands=[])
    wl.inputs = {**graph_properties(strict_json(network)), "realizations": realizations, "rng_seed": seed}

    def degrees(edges) -> dict[str, int]:
        deg: dict[str, int] = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        return deg

    def check_nulltest(out: Path) -> list[str]:
        report = strict_json(out / "null.json")
        problems = [] if report["n_realizations"] == realizations else ["wrong realization count"]
        net = load_network(network)
        null = configuration_rewire(net, seed)
        for layer in ("syntactic_edges", "synonym_edges"):
            if degrees(getattr(null, layer)) != degrees(getattr(net, layer)):
                problems.append(f"configuration_rewire changed the {layer} degree sequence")
        return problems

    def check_benchmark(out: Path) -> list[str]:
        for p in sorted(out.glob("*.json")):
            strict_json(p)
        report = strict_json(out / "benchmark.json")
        return [] if report["n_realizations"] == realizations else ["wrong realization count"]

    common = ["--realizations", str(realizations), "--seed", str(seed)]
    wl.commands += [
        Command("nulltest_s", lambda out: ["nulltest", "--network", str(network), *common,
                                           "--out", str(out / "null.json")], check_nulltest),
        Command("topic_benchmark_s", lambda out: ["benchmark", *common, "--out-dir", str(out)],
                check_benchmark),
    ]
    return wl


WORKLOADS = {"build_zipf": build_zipf, "analyse_graph": analyse_graph, "null_models": null_models}


# ---------------------------------------------------------------------------
# rounds

@dataclass
class Round:
    traced: bool
    directory: Path
    results: dict[str, Result]
    refs: list[float]  # reference() before the first command and after each
    wall_s: float


def run_round(wl: Workload, directory: Path, traced: bool, deadline: float,
              before: float | None) -> Round:
    """One run of the workload's commands, with reference() timed after each
    and before the first, unless the previous round's last one is given."""
    directory.mkdir()
    results = {}
    refs = [reference(directory) if before is None else before]
    for cmd in wl.commands:
        out = directory / cmd.metric
        out.mkdir()
        spans = directory / f"{cmd.metric}.spans.json" if traced else None
        results[cmd.metric] = run_process(tfmn_argv(cmd.args(out), spans), directory,
                                          directory / cmd.metric, deadline - perf_counter())
        if results[cmd.metric].code is None:
            break
        refs.append(reference(directory))
    return Round(traced, directory, results, refs, sum(r.wall_s for r in results.values()))


def normalised(samples: list[tuple[float, float, float]]) -> float:
    """Wall times rescaled by the reference times taken around them, from
    (wall, reference before, reference after) triples. A ratio of sums: the
    host changes state within a command as well as between commands, so
    the reference samples of a whole run estimate its mean speed better
    than the two around any one command do."""
    if not samples:
        return 0.0
    return REFERENCE_NOMINAL_S * sum(w for w, _, _ in samples) / sum((b + a) / 2 for _, b, a in samples)


def round_samples(r: Round) -> dict[str, tuple[float, float, float]]:
    """(wall, reference before, reference after) of each finished command."""
    return {m: (res.wall_s, r.refs[i], r.refs[i + 1])
            for i, (m, res) in enumerate(r.results.items()) if i + 1 < len(r.refs)}


def normalised_walls(wl: Workload, rounds: list[Round]) -> dict[str, float]:
    """Per command, its normalised wall time over the rounds."""
    samples = [round_samples(r) for r in rounds]
    return {cmd.metric: normalised([s[cmd.metric] for s in samples if cmd.metric in s])
            for cmd in wl.commands}


def _digest(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def check_rounds(wl: Workload, rounds: list[Round]) -> dict[tuple[int, str], list[str]]:
    """Problems per (round, command): exit status, tracebacks, output checks
    on the first round, and byte-identity of every later round with it."""
    problems: dict[tuple[int, str], list[str]] = {}
    first = {cmd.metric: _digest(rounds[0].directory / cmd.metric) for cmd in wl.commands}
    for k, rnd in enumerate(rounds):
        for cmd in wl.commands:
            found = []
            result = rnd.results.get(cmd.metric)
            if result is None or result.code is None:
                found.append("not finished before the run's time limit")
            else:
                if result.code != 0:
                    found.append(f"exit code {result.code}: {result.stderr.strip()[-300:]}")
                if "Traceback (most recent call last)" in result.stderr:
                    found.append("raised: " + result.stderr.strip()[-300:])
                if not found and k == 0:
                    try:
                        found += cmd.check(rnd.directory / cmd.metric)
                    except (OSError, ValueError, KeyError, TypeError, ElementTree.ParseError) as exc:
                        found.append(f"output check failed: {exc!r}")
                if not found and k > 0 and _digest(rnd.directory / cmd.metric) != first[cmd.metric]:
                    found.append("outputs differ from the first round's")
            problems[(k, cmd.metric)] = found
    return problems


# ---------------------------------------------------------------------------
# traced rounds

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(spans_file: Path, target_layers: tuple[str, ...]) -> dict[str, float]:
    """Counts, busy (inclusive) and self times per traced function, plus the
    command time, the time not covered by any span, and the inclusive time
    of calls entering the target layers."""
    trace = json.loads(spans_file.read_text(encoding="utf-8"))
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    in_target = [False] * len(spans)  # the span or one of its ancestors is in a target layer
    out: dict[str, float] = {}
    target_entry = 0.0
    for i, (name_idx, start, end, parent) in enumerate(spans):
        name = names[name_idx]
        if parent >= 0:
            child_time[parent] += end - start
        layer_hit = _layer(name) in target_layers
        if layer_hit and not (parent >= 0 and in_target[parent]):
            target_entry += end - start
        in_target[i] = layer_hit or (parent >= 0 and in_target[parent])
    for i, (name_idx, start, end, parent) in enumerate(spans):
        name = names[name_idx]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child_time[i])
    for key, value in trace["counters"].items():
        out[key] = out.get(key, 0) + value
    out["trace.command_s"] = out.get("cli.main.busy_s", 0.0)
    out["cli.other_s"] = out.get("cli.main.self_s", 0.0)
    out["trace.target_entry_s"] = target_entry
    return out


def _sum_dicts(dicts) -> dict[str, float]:
    total: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


def importtime() -> dict[str, float]:
    """Cumulative import times of numpy and networkx, and of the rest of
    `import tfmn.cli`, from `python -X importtime` (medians of a few runs)."""
    samples: dict[str, list[float]] = {"numpy": [], "networkx": [], "tfmn": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tfmn.cli"],
                              env=_env(), capture_output=True, text=True, timeout=60, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e6))

        def cumulative(module: str, exclude: str | None = None) -> float:
            for i, (depth, name, cum) in enumerate(rows):
                if name != module:
                    continue
                j = i - 1  # children precede their parent, deeper than it
                while exclude and j >= 0 and rows[j][0] > depth:
                    if rows[j][1] == exclude:
                        cum -= rows[j][2]
                    j -= 1
                return cum
            return 0.0

        numpy_s = cumulative("numpy")
        networkx_s = cumulative("networkx", exclude="numpy")
        samples["numpy"].append(numpy_s)
        samples["networkx"].append(networkx_s)
        samples["tfmn"].append(cumulative("tfmn.cli") - numpy_s - networkx_s)
    return {f"startup.{k}_s": _median(v) for k, v in samples.items()}


def layer_report(rounds: list[Round], target_layers: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics from the traced rounds, and the tracing overhead."""
    per_round = [
        _sum_dicts(span_metrics(r.directory / f"{m}.spans.json", target_layers) for m in r.results)
        for r in rounds if r.traced
    ]
    keys = set().union(*per_round)
    raw = {k: _median([d.get(k, 0) for d in per_round]) for k in keys}

    def get(key: str) -> float:
        return raw.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def round_time(traced: bool) -> float:
        """Normalised time of a round, traced or not: the host's speed
        swings too much for the difference of raw times to show the cost
        of tracing."""
        samples = [s for r in rounds if r.traced == traced for s in round_samples(r).values()]
        rounds_run = sum(r.traced == traced for r in rounds)
        return normalised(samples) * len(samples) / max(1, rounds_run)

    metrics = {
        "ingest.unparsed_ratio": ratio(get("ingest.heuristic_parse.raised"), get("ingest.heuristic_parse.calls")),
        "stemmer.stem.distinct_ratio": ratio(get("stemmer.stem.distinct_inputs"), get("stemmer.stem.calls")),
        "lexicons.load.busy_s": sum(get(f"lexicons.{f}.busy_s") for f in (
            "load_valence_norms", "load_emotion_lexicon", "load_synonyms", "load_antonyms")),
        "stats.swap_fill_ratio": ratio(get("stats.swaps_done"), get("stats.swaps_target")),
        "trace.overhead_s": round_time(True) - round_time(False),
        "trace.target_layer_share": ratio(get("trace.target_entry_s"), get("trace.command_s")),
    }
    return {**raw, **metrics}


# ---------------------------------------------------------------------------
# one run

def measure_setup(work: Path) -> tuple[float, float]:
    """Normalised and raw (median) wall times of a fresh interpreter running
    `import tfmn.cli`; the first, cache-warming start is not counted."""
    samples = []
    before = reference(work)
    for k in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import tfmn.cli"], env=_env(), check=True, timeout=60)
        wall = perf_counter() - start
        after = reference(work)
        if k:
            samples.append((wall, before, after))
        before = after
    return normalised(samples), statistics.median(w for w, _, _ in samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float,
                 spec: dict) -> dict:
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        wl = WORKLOADS[name](work, random.Random(f"{name}:{seed}"), scale)
        setup_s, setup_raw_s = measure_setup(work) if not trace else (None, None)
        startup = importtime() if trace else {}
        generated = perf_counter() - started

        # untraced rounds, or untraced/traced pairs, until the time is used up
        cycle = [False, True] if trace else [False]
        min_cycles = 1 if trace else 2
        rounds: list[Round] = []
        measure_start = perf_counter()
        while True:
            for traced in cycle:
                rounds.append(run_round(wl, work / f"round{len(rounds)}", traced, deadline,
                                        rounds[-1].refs[-1] if rounds else None))
            cycles = len(rounds) // len(cycle)
            elapsed = perf_counter() - measure_start
            stalled = any(r.code is None for r in rounds[-1].results.values())
            if stalled or (cycles >= min_cycles and elapsed * (cycles + 1) / cycles > seconds):
                break
        measured = perf_counter() - measure_start

        problems = check_rounds(wl, rounds)
        failed = sum(bool(p) for p in problems.values())
        plain = [r for r in rounds if not r.traced]
        walls = {cmd.metric: _median([r.results[cmd.metric].wall_s for r in plain
                                      if cmd.metric in r.results]) for cmd in wl.commands}
        norm = normalised_walls(wl, plain)
        if trace:
            layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
            values = {**startup, **layer_report(rounds, tuple(layers["target_layers"][name])),
                      **wl.defects, **{f"cmd.{m}": wall for m, wall in walls.items()}}
        else:
            values = {
                "setup_s": setup_s,
                "wall_norm_s": sum(norm.values()),
                "peak_rss_mb": max(res.max_rss_mb for r in plain for res in r.results.values()),
            }
        kind = "per_layer" if trace else "end_to_end"
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec[kind]}

        print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(plain)} untraced and "
              f"{len(rounds) - len(plain)} traced rounds in {measured:.1f} s "
              f"(set-up and input generation {generated:.1f} s)")
        print("machine: " + json.dumps({"nproc": os.cpu_count(), "python": sys.version.split()[0]}))
        print("inputs: " + json.dumps(wl.inputs, sort_keys=True))
        print("known defects: " + json.dumps(wl.defects, sort_keys=True))
        refs = [t for r in plain for t in r.refs]
        print(f"  reference.py           {_median(refs):8.4f} s raw   (median of {len(refs)}, "
              f"{min(refs):.3f} to {max(refs):.3f}; nominal {REFERENCE_NOMINAL_S} s)")
        if setup_raw_s is not None:
            print(f"  setup_s                {setup_raw_s:8.4f} s raw   {setup_s:8.4f} s normalised")
        for metric, wall in walls.items():
            samples = " ".join(f"{r.results[metric].wall_s:.3f}" for r in plain if metric in r.results)
            print(f"  {metric:<22} {wall:8.4f} s raw   {norm[metric]:8.4f} s normalised   "
                  f"(raw, {len(plain)} rounds: {samples})")
        for metric, entry in metrics.items():
            print(f"  {metric:<40} {entry['value']:14.6g} {entry['unit']}")
        print(f"  {'failed_ops_ratio':<22} {failed / len(problems):12.4f}   ({failed}/{len(problems)})")
        for (k, metric), found in sorted(problems.items()):
            for problem in found[:3]:
                print(f"FAILED round {k} {metric}: {problem[:300]}", file=sys.stderr)
            if len(found) > 3:
                print(f"FAILED round {k} {metric}: {len(found) - 3} more problems", file=sys.stderr)
        return {"correct": failed == 0, "attempted": len(problems), "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke test)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tfmn" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no tfmn sources under {SRC} or no {spec_path.name}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; expected one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    reports = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.scale, spec)
               for n in names}
    if len(reports) == 1:
        final = reports[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
