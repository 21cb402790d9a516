"""Measure how fast the degree-preserving swap chain mixes, and where each
tracked statistic reaches its plateau.

Stdlib only, apart from `tfmn` itself, imported from this checkout. Run from the
repository root:

    python3 tools/mixing.py

The chain is the swap kernel of the null models (`tfmn.stats.rewire_graph`),
stepped one swap per edge at a time: each step rewires the previous step's
graph with its own seed (seed * STEPS + step). Swaps pick edges uniformly, so
a chain stopped after k steps is a draw of the same law as one null
realization made with k swaps per edge. Two graphs, each from its bundled
data:

- oracle: the free-association network of the topic benchmark (1,877 edges);
- syntactic: the syntactic layer of the synthetic network that `tfmn build`
  makes from the bundled corpus (631 edges).

At each step the script records, per seed, the share of the start graph's
edges still present (overlap), the mean clustering (as `mean_clustering`
computes it) and, on the oracle only, the mean BFS distance from the seven
benchmark topic stems to every node they reach (topic_distance), the
distance that the topic benchmark tests. It prints one markdown table row
per graph and statistic: the start value, the seed mean at each step and the
plateau. The plateau is the first step from which the seed mean stays within
BAND standard errors (about 4.4) of its level, its mean over steps 6-10; see
Ray, Pinar & Seshadhri, "Are we there yet? When to stop a Markov chain while
generating random graphs" (WAW 2012), and Fosdick et al.,
"Configuring Random Graph Models with Fixed Degree Sequences" (SIAM Review
2018), for stopping a swap chain at a measured plateau.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "src" / "tfmn" / "data"
sys.path.insert(0, str(DATA.parents[1]))

from tfmn.build import Indexed, assemble_network, count_corpus  # noqa: E402
from tfmn.cli import BENCHMARK_TOPICS  # noqa: E402
from tfmn.lexicons import load_emotion_lexicon, load_synonyms, load_valence_norms  # noqa: E402
from tfmn.metrics import _edge_forward_sets, _edge_lists, _mean_clustering, bfs  # noqa: E402
from tfmn.stats import load_free_associations, rewire_graph  # noqa: E402
from tfmn.stemmer import stem  # noqa: E402

SEEDS = 10
STEPS = 10
REFERENCE = range(6, 11)  # steps whose seed means set the plateau level
TESTS = STEPS * 5  # every step of the five statistics in the table
Statistic = Callable[[Indexed], float]


def t_quantile(p: float, df: int) -> float:
    """Student's t quantile, by the Cornish-Fisher expansion about the normal
    one: 4.0480 for p = 1 - 1e-4 and df = 45, against an exact 4.0493."""
    z = statistics.NormalDist().inv_cdf(p)
    return z + (z**3 + z) / (4 * df) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * df**2)


# Half-width of the plateau band, in standard errors of one step's seed mean.
# It is a Bonferroni bound: a chain already at its level leaves the band at
# some step of some statistic with probability at most 1%. The quantile is
# Student's t for the 45 degrees of freedom of the seed variance pooled over
# the reference steps; sqrt(1 + 1/5) allows for the level being itself a mean
# of five step means. Over 200 disjoint 10-seed sets, a plain 3 gave a
# largest plateau of 4 or more in 29; this band did in one.
BAND = (t_quantile(1 - 0.01 / (2 * TESTS), len(REFERENCE) * (SEEDS - 1))
        * math.sqrt(1 + 1 / len(REFERENCE)))


def edges_of(graph: Indexed) -> set[tuple[int, int]]:
    """The id pairs (lo, hi) of the graph's edges; a rewire keeps the ids."""
    return {(u, v) for u, nbrs in enumerate(graph.nbrs) for v in nbrs if u < v}


def chain(graph: Indexed, seed: int) -> Iterator[Indexed]:
    """The graphs after 1, 2, ..., STEPS swaps per edge."""
    for step in range(STEPS):
        graph = rewire_graph(graph, seed * STEPS + step, 1)
        yield graph


def clustering(graph: Indexed) -> float:
    """The mean clustering, as `mean_clustering` computes it on a network's ids."""
    return _mean_clustering(_edge_forward_sets(len(graph.stems), _edge_lists(graph)))


def overlap_with(start: Indexed) -> Statistic:
    start_edges = edges_of(start)
    return lambda graph: len(edges_of(graph) & start_edges) / len(start_edges)


def topic_distance(topics: list[str]) -> Statistic:
    def mean_distance(graph: Indexed) -> float:
        distances = [d for t in topics for d in bfs(graph.nbrs, graph.id_of(t)).values() if d > 0]
        return statistics.fmean(distances)
    return mean_distance


def trajectories(start: Indexed, stats: dict[str, Statistic]) -> dict[str, list[list[float]]]:
    """For each statistic, its values at steps 1..STEPS, one list of per-seed values per step."""
    series = {name: [[] for _ in range(STEPS)] for name in stats}
    for seed in range(SEEDS):
        for step, graph in enumerate(chain(start, seed)):
            for name, stat in stats.items():
                series[name][step].append(stat(graph))
    return series


def plateau(per_step: list[list[float]]) -> int:
    """The first step (counted from 1) from which the seed mean stays within
    BAND standard errors of the level, the mean of the seed means over the
    reference steps; len(per_step) + 1 when even the last step lies outside.
    The standard error is that of one step's seed mean at the level, from the
    seed variance pooled over the reference steps: one step's own 10 values
    estimate it so loosely that flat statistics show late plateaus."""
    means = [statistics.fmean(values) for values in per_step]
    level = statistics.fmean(means[step - 1] for step in REFERENCE)
    variance = statistics.fmean(statistics.variance(per_step[step - 1]) for step in REFERENCE)
    se = math.sqrt(variance / len(per_step[0]))
    for step in range(len(per_step), 0, -1):
        if abs(means[step - 1] - level) > BAND * se:
            return step + 1
    return 1


def bundled_graphs() -> dict[str, tuple[Indexed, dict[str, Statistic]]]:
    """Each bundled graph with the statistics tracked on it. The synthetic
    network is counted and assembled as `tfmn build` does it (--min-words 3)."""
    oracle = load_free_associations(DATA / "benchmark" / "free_associations.tsv")
    lexicons = DATA / "lexicons"
    counts, _ = count_corpus(DATA / "synthetic" / "corpus.txt", "text", 3)
    net = assemble_network(counts, load_valence_norms(lexicons / "valence.csv"),
                           load_emotion_lexicon(lexicons / "emotions.tsv"),
                           load_synonyms(lexicons / "synonyms.tsv"), corpus_id="synthetic")
    syntactic = net.indexed("syntactic")
    topics = sorted(stem(w) for w in BENCHMARK_TOPICS.values())
    return {
        "oracle": (oracle, {"overlap": overlap_with(oracle), "clustering": clustering,
                            "topic_distance": topic_distance(topics)}),
        "syntactic": (syntactic, {"overlap": overlap_with(syntactic), "clustering": clustering}),
    }


def main() -> None:
    print("| graph | edges | statistic | start | "
          + " | ".join(map(str, range(1, STEPS + 1))) + " | plateau |")
    print("|---|---:|---|---:|" + "---:|" * STEPS + "---:|")
    for name, (graph, stats) in bundled_graphs().items():
        series = trajectories(graph, stats)
        for stat, per_step in series.items():
            means = [statistics.fmean(values) for values in per_step]
            print(f"| {name} | {len(edges_of(graph))} | {stat} | {stats[stat](graph):.3f} | "
                  + " | ".join(f"{m:.3f}" for m in means) + f" | {plateau(per_step)} |")


if __name__ == "__main__":
    main()
