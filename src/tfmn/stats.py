"""Null models and nonparametric testing.

Configuration-model nulls are produced by degree-preserving double edge
swaps on simple graphs (self-loops and duplicate edges rejected and
retried), applied independently per layer. Location differences between
empirical and null samples use the Mann-Whitney U test with midrank ties
and a tie-corrected normal approximation.

The swap kernel works on the sorted-stem ids of `build.Indexed`. Each attempt
draws from the seeded ``random.Random`` in a fixed sequence: edge index i,
then edge index j, each exactly as ``rng.randrange(m)`` would draw it, then
one ``rng.random()`` coin for the swap orientation, drawn only when i != j.
A given seed therefore always yields the same realization.

The realizations of `clustering_null_test` and `benchmark_topic_relevance`
stay on those ids from the swaps to the number they return: mean clustering
and BFS distances are measured on id neighbour lists. Ids follow sorted-stem
order, so the results equal `mean_clustering` of the public
`configuration_rewire`, which maps the rewired ids back to stem pairs, or
`bfs` on the `Indexed` graph that the public `rewire_graph` returns.

The realizations of an ensemble are spread over forked worker processes, one
per usable CPU (`tfmn.workers`), and gathered in seed order, so a report does
not depend on the number of workers.
"""

from __future__ import annotations

import math
import random
import statistics
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

from . import lexicons, workers
from .build import Indexed, MultiplexLexicalNetwork, indexed
from .metrics import _mean_clustering, bfs, mean_clustering

__all__ = [
    "SWAPS_PER_EDGE",
    "MannWhitneyResult",
    "configuration_rewire",
    "rewire_graph",
    "mann_whitney_u",
    "benchmark_topic_relevance",
    "clustering_null_test",
    "load_free_associations",
]


# ---------------------------------------------------------------------------
# degree-preserving rewiring

# Default swaps per edge of each realization: twice the largest plateau that
# tools/mixing.py measures on the bundled graphs (2 swaps per edge, the edge
# overlap of the oracle and of the synthetic syntactic layer), capped at 5.
SWAPS_PER_EDGE = 4


def _edge_lists(graph: Indexed) -> tuple[list[int], list[int]]:
    """The (lo, hi) id lists of a simple graph's edges, in sorted order."""
    # u <= v keeps a self-loop; the (lo, hi) pairs come out sorted
    pairs = [(u, v) for u, nbrs in enumerate(graph.nbrs) for v in nbrs if u <= v]
    if any(u == v for u, v in pairs):
        raise ValueError("graph is not simple: self-loop")
    return [u for u, _ in pairs], [v for _, v in pairs]


def _rewire_ids(
    lo: list[int], hi: list[int], n: int, rng: random.Random, swaps_per_edge: int
) -> tuple[list[int], list[int], int]:
    """Double edge swaps on an undirected simple graph of n nodes, given as
    the (lo, hi) id lists of `_edge_lists`, which are left as they are.
    Returns the rewired lists, each edge still in (lo, hi) order, and the
    number of swaps performed; warns when the attempt budget runs out before
    swaps_per_edge swaps per edge are made."""
    if swaps_per_edge < 1:
        raise ValueError(f"swaps_per_edge must be at least 1, got {swaps_per_edge}")
    lo, hi = list(lo), list(hi)
    m = len(lo)
    if m < 2:
        return lo, hi, 0
    key = [u * n + v for u, v in zip(lo, hi)]  # key[i] packs edge i
    keys = set(key)
    remove, add = keys.remove, keys.add
    target = swaps_per_edge * m
    performed = 0
    attempts = 100 * target
    getrandbits, coin = rng.getrandbits, rng.random
    bits = m.bit_length()
    for _ in range(attempts):
        # two rng.randrange(m) draws, inlined as its rejection loop
        i = getrandbits(bits)
        while i >= m:
            i = getrandbits(bits)
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        if i == j:
            continue
        a, b = lo[i], hi[i]
        c, d = lo[j], hi[j]
        # choose swap orientation: (a,c)+(b,d) or (a,d)+(b,c)
        if coin() < 0.5:
            c, d = d, c
        if a == c or a == d or b == c or b == d:
            continue
        # new edges (a, c) and (b, d), each put in (lo, hi) order
        if c < a:
            a, c = c, a
        new1 = a * n + c
        if new1 in keys:
            continue
        if d < b:
            b, d = d, b
        new2 = b * n + d
        if new2 in keys:
            continue
        remove(key[i])
        remove(key[j])
        add(new1)
        add(new2)
        key[i], key[j] = new1, new2
        lo[i], hi[i] = a, c
        lo[j], hi[j] = b, d
        performed += 1
        if performed == target:
            break
    else:
        warnings.warn(f"rewiring fell short: {performed or 'no'} swaps of {target} "
                      f"in {attempts} attempts on {m} edges")
    return lo, hi, performed


def _rewire_edge_set(
    graph: Indexed, rng: random.Random, swaps_per_edge: int
) -> tuple[set[tuple[str, str]], int]:
    """`_rewire_ids` on an indexed graph, its rewired edges given back as
    stem pairs."""
    lo, hi, performed = _rewire_ids(*_edge_lists(graph), len(graph.stems), rng, swaps_per_edge)
    stems = graph.stems
    return {(stems[u], stems[v]) for u, v in zip(lo, hi)}, performed


def configuration_rewire(
    net: MultiplexLexicalNetwork, seed: int, swaps_per_edge: int = SWAPS_PER_EDGE
) -> MultiplexLexicalNetwork:
    """One configuration-model realization: each layer rewired
    independently, per-layer degree sequences preserved exactly."""
    rng = random.Random(seed)
    syn_edges, syn_swaps = _rewire_edge_set(net.indexed("syntactic"), rng, swaps_per_edge)
    sem_edges, sem_swaps = _rewire_edge_set(net.indexed("synonym"), rng, swaps_per_edge)
    return MultiplexLexicalNetwork(
        nodes=dict(net.nodes),
        syntactic_edges={pair: 1 for pair in syn_edges},
        synonym_edges=sem_edges,
        provenance={
            **net.provenance,
            "null_model": {"seed": seed, "swaps": [syn_swaps, sem_swaps]},
        },
    )


def rewire_graph(graph: Indexed, seed: int, swaps_per_edge: int = SWAPS_PER_EDGE) -> Indexed:
    """Degree-preserving rewire of a plain simple graph, given and returned
    as an `Indexed` graph on the same stems."""
    n = len(graph.stems)
    lo, hi, _ = _rewire_ids(*_edge_lists(graph), n, random.Random(seed), swaps_per_edge)
    return Indexed(graph.stems, tuple([tuple(sorted(nb)) for nb in _neighbours(n, (lo, hi))]))


def _neighbours(n: int, *edge_lists: tuple[list[int], list[int]]) -> list[list[int]]:
    """Id neighbour lists of n nodes from (lo, hi) edge lists; a pair in two
    of them is listed twice."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in edge_lists:
        for u, v in zip(lo, hi):
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


def null_ensemble(
    net: MultiplexLexicalNetwork,
    n_realizations: int,
    seed: int,
    swaps_per_edge: int = SWAPS_PER_EDGE,
) -> Iterator[MultiplexLexicalNetwork]:
    """Configuration-model realizations for seeds seed, seed + 1, ..., each
    drawn only when the iterator reaches it, so callers can drop it after use."""
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    return (configuration_rewire(net, seed + k, swaps_per_edge) for k in range(n_realizations))


# ---------------------------------------------------------------------------
# realizations in worker processes

def _map_seeds(fn: Callable[[int], object], seeds: list[int]) -> list:
    """[fn(s) for s in seeds], computed by `workers.map_chunks` in contiguous
    chunks of seeds, one per usable CPU. fn returns plain numbers; a
    shortfall warning a worker records is issued again here, as if raised in
    this process."""
    def realizations(chunk: list[int]) -> list:
        return [fn(s) for s in chunk]

    return [value for values in workers.map_chunks(realizations, seeds) for value in values]


# ---------------------------------------------------------------------------
# Mann-Whitney U

@dataclass(frozen=True)
class MannWhitneyResult:
    U: float
    p_value: float
    n1: int
    n2: int
    median1: float
    median2: float


def _midranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def mann_whitney_u(sample_a: list[float], sample_b: list[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U (U of the first sample), normal
    approximation with continuity and tie correction."""
    if not sample_a or not sample_b:
        raise ValueError("both samples must be nonempty")
    n1, n2 = len(sample_a), len(sample_b)
    pooled = list(sample_a) + list(sample_b)
    ranks = _midranks(pooled)
    r1 = sum(ranks[:n1])
    u1 = n1 * n2 + n1 * (n1 + 1) / 2 - r1
    n = n1 + n2
    tie_term = 0.0
    seen: dict[float, int] = {}
    for v in pooled:
        seen[v] = seen.get(v, 0) + 1
    for t in seen.values():
        tie_term += t**3 - t
    sigma_sq = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    mu = n1 * n2 / 2
    if sigma_sq <= 0:
        p = 1.0
    else:
        diff = u1 - mu
        correction = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
        z = (diff - correction) / math.sqrt(sigma_sq)
        p = 2 * (1 - _norm_cdf(abs(z)))
        p = min(max(p, 1e-300), 1.0)
    return MannWhitneyResult(
        U=u1,
        p_value=p,
        n1=n1,
        n2=n2,
        median1=float(statistics.median(sample_a)),
        median2=float(statistics.median(sample_b)),
    )


def _norm_cdf(x: float) -> float:
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


# ---------------------------------------------------------------------------
# free-association benchmark

def load_free_associations(path: str | Path) -> Indexed:
    """The `Indexed` graph of a word<TAB>word edge list, read like the
    synonym and antonym tables: words stemmed with the stemmer used for
    network construction, self-pairs dropped."""
    pairs, _ = lexicons._load_pairs(path)
    return indexed({s for e in pairs for s in e}, pairs)


def _topic_distances(nbrs, queries: list[tuple[int, list[int]]]) -> list[list[int]]:
    """Per (topic id, ranked ids) query, the BFS distances on id-indexed
    neighbour lists from the topic to the ranked ids it reaches, in ranked order."""
    out = []
    for topic, ranked in queries:
        lengths = bfs(nbrs, topic)
        out.append([lengths[v] for v in ranked if v in lengths])
    return out


def benchmark_topic_relevance(
    rankings: dict[str, list[str]],
    oracle: Indexed,
    n_realizations: int = 50,
    seed: int = 0,
    swaps_per_edge: int = SWAPS_PER_EDGE,
) -> dict:
    """Compare oracle distances from ranked stems to their topics against
    the same distances on degree-preserving rewires of the oracle.

    The oracle (free-association) network is the randomization target,
    since distances are measured on it; this choice is recorded in the
    report header. Each realization is `rewire_graph` followed by `bfs`,
    computed on the oracle's sorted-stem ids.
    """
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    n = len(oracle.stems)
    ids = {s: i for i, s in enumerate(oracle.stems)}
    usable = {t: stems for t, stems in rankings.items() if t in ids}
    skipped_topics = sorted(set(rankings) - set(usable))
    if not usable:
        raise ValueError("no ranking topic is present in the oracle network")
    if skipped_topics:
        warnings.warn(f"topics absent from oracle skipped: {skipped_topics}")

    topics = sorted(usable)
    others = {t: [s for s in usable[t] if s != t] for t in topics}
    queries = [(ids[t], [ids[s] for s in others[t] if s in ids]) for t in topics]
    empirical: list[float] = []
    per_topic: dict[str, dict] = {}
    absent_stems = 0
    for topic, distances in zip(topics, _topic_distances(oracle.nbrs, queries)):
        skipped = len(others[topic]) - len(distances)
        absent_stems += skipped
        per_topic[topic] = {"empirical_distances": distances, "absent_stems": skipped}
        empirical.extend(float(d) for d in distances)

    edges = _edge_lists(oracle)  # forked workers inherit them

    def null_distances(s: int) -> list[float]:
        lo, hi, _ = _rewire_ids(*edges, n, random.Random(s), swaps_per_edge)
        return [float(d) for distances in _topic_distances(_neighbours(n, (lo, hi)), queries)
                for d in distances]

    seeds = [seed + k for k in range(n_realizations)]
    null = [d for distances in _map_seeds(null_distances, seeds) for d in distances]
    empirical.sort()
    null.sort()
    result = mann_whitney_u(empirical, null)
    return {
        "randomization_target": "free-association oracle network",
        "topics": topics,
        "skipped_topics": skipped_topics,
        "absent_ranked_stems": absent_stems,
        "n_realizations": n_realizations,
        "seed": seed,
        "seeds": seeds,
        "swaps_per_edge": swaps_per_edge,
        "per_topic": per_topic,
        "empirical_median": result.median1,
        "null_median": result.median2,
        "mann_whitney": asdict(result),
    }


def clustering_null_test(
    net: MultiplexLexicalNetwork,
    n_realizations: int = 50,
    seed: int = 0,
    swaps_per_edge: int = SWAPS_PER_EDGE,
) -> dict:
    """Empirical mean clustering against the configuration-ensemble
    mean +/- standard deviation; z-score None if the ensemble has no spread.
    Each realization's value is `mean_clustering(configuration_rewire(...))`,
    computed on the sorted-stem ids."""
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    seeds = [seed + k for k in range(n_realizations)]
    empirical = mean_clustering(net)
    n = len(net.nodes)
    # forked workers inherit each layer's edge lists
    syntactic, synonym = _edge_lists(net.indexed("syntactic")), _edge_lists(net.indexed("synonym"))

    def null_clustering(s: int) -> float:
        rng = random.Random(s)  # draws for the syntactic layer, then the synonym layer
        syn_lo, syn_hi, _ = _rewire_ids(*syntactic, n, rng, swaps_per_edge)
        sem_lo, sem_hi, _ = _rewire_ids(*synonym, n, rng, swaps_per_edge)
        return _mean_clustering(_neighbours(n, (syn_lo, syn_hi), (sem_lo, sem_hi)))

    values = _map_seeds(null_clustering, seeds)
    mean = statistics.fmean(values)
    std = statistics.pstdev(values)
    z = (empirical - mean) / std if std > 0 else None
    return {
        "empirical_clustering": empirical,
        "ensemble_mean": mean,
        "ensemble_std": std,
        "z_score": z,
        "n_realizations": n_realizations,
        "seed": seed,
        "seeds": seeds,
        "swaps_per_edge": swaps_per_edge,
    }
