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
An attempt that would swap edges i = (a, b) and j into (a, c) and (b, d) is
rejected if a == c or b == d, a self-loop, or if a new edge is already
present, which the kernel looks up in per-node sets of higher-id neighbours.
The other shared ends, a == d and b == c, make a new edge equal to edge i,
which is still present, so the lookup rejects them: no draw depends on which
test rejects an attempt, and the sequence is the one the kernel drew when it
ran on stem pairs. Every realization is one `_rewire_layers` call, which
rewires the layers in turn from one ``random.Random(seed)``: a given seed
always yields the same realization.

The realizations of `clustering_null_test` and `benchmark_topic_relevance`
stay on those ids from the swaps to the number they return, and each measure
reads the rewired (lo, hi) edge lists for no more than its answer needs.
Mean clustering takes the forward sets of the edges and finds each triangle
once. Topic distances collect the neighbour sets of the queried ids alone,
answer distance 1 and 2 by set tests, and search the whole graph only for a
ranked id further away or out of reach. Ids follow sorted-stem order, so the
results equal `mean_clustering` of the public `configuration_rewire`, which
maps the rewired ids back to stem pairs, or `bfs` on the `Indexed` graph that
the public `rewire_graph` returns.

The realizations of an ensemble are spread over forked worker processes, one
per usable CPU (`tfmn.workers`), and gathered in seed order, so a report does
not depend on the number of workers. A worker returns each realization's
value with its swap counts, and this process warns of the shortfalls, as
`configuration_rewire` and `rewire_graph` do.
"""

from __future__ import annotations

import math
import random
import statistics
import warnings
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import lexicons, stage, workers
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
# Attempts a rewiring may make per swap it aims at before it gives up.
_ATTEMPTS_PER_SWAP = 100


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
    number of swaps performed, which falls short of swaps_per_edge per edge
    when the budget of `_ATTEMPTS_PER_SWAP` attempts per swap runs out first.

    Edge membership is kept per node: later[u] holds the ids v > u joined to
    u. An attempt swapping edges i = (a, b) and j into (a, c) + (b, d) tests
    only a == c and b == d, the self-loops, before the lookups: if a == d
    or b == c, a new edge is edge i, which is still in later, so the lookup
    rejects the attempt after the same draws and before any change."""
    if swaps_per_edge < 1:
        raise ValueError(f"swaps_per_edge must be at least 1, got {swaps_per_edge}")
    lo, hi = list(lo), list(hi)
    m = len(lo)
    if m < 2:
        return lo, hi, 0
    later = _edge_forward_sets(n, (lo, hi))
    target = swaps_per_edge * m
    performed = 0
    getrandbits, coin = rng.getrandbits, rng.random
    bits = m.bit_length()
    for _ in range(_ATTEMPTS_PER_SWAP * target):
        # two rng.randrange(m) draws, inlined as its rejection loop
        i = getrandbits(bits)
        while i >= m:
            i = getrandbits(bits)
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        if i == j:
            continue
        a = lo[i]
        b = hi[i]
        # choose swap orientation: (a,c)+(b,d) or (a,d)+(b,c) of edge j
        if coin() < 0.5:
            c = hi[j]
            d = lo[j]
        else:
            c = lo[j]
            d = hi[j]
        if a == c or b == d:
            continue
        # new edges (a, c) and (b, d), each put in (lo, hi) order
        if c < a:
            a, c = c, a
        if c in later[a]:
            continue
        if d < b:
            b, d = d, b
        if d in later[b]:
            continue
        later[lo[i]].remove(hi[i])
        later[lo[j]].remove(hi[j])
        later[a].add(c)
        later[b].add(d)
        lo[i] = a
        hi[i] = c
        lo[j] = b
        hi[j] = d
        performed += 1
        if performed == target:
            break
    return lo, hi, performed


def _rewire_layers(layers: list, n: int, seed: int, swaps_per_edge: int) -> list:
    """One realization: `_rewire_ids` on each (lo, hi) edge list of layers in
    turn, all drawing from one random.Random(seed); (lo, hi, swaps) per layer."""
    with stage("rewire", len(layers)):
        rng = random.Random(seed)
        return [_rewire_ids(lo, hi, n, rng, swaps_per_edge) for lo, hi in layers]


def _warn_shortfalls(layers: list, swaps: list[int], swaps_per_edge: int) -> None:
    """Warn of each layer whose swaps fell short of swaps_per_edge per edge;
    a layer of fewer than 2 edges has no swap to make."""
    for (lo, _), performed in zip(layers, swaps):
        m = len(lo)
        target = swaps_per_edge * m
        if m > 1 and performed < target:
            warnings.warn(f"rewiring fell short: {performed or 'no'} swaps of {target} "
                          f"in {_ATTEMPTS_PER_SWAP * target} attempts on {m} edges")


def configuration_rewire(
    net: MultiplexLexicalNetwork, seed: int, swaps_per_edge: int = SWAPS_PER_EDGE
) -> MultiplexLexicalNetwork:
    """One configuration-model realization: each layer rewired
    independently, per-layer degree sequences preserved exactly."""
    stems = net.indexed("syntactic").stems
    layers = [_edge_lists(net.indexed("syntactic")), _edge_lists(net.indexed("synonym"))]
    rewired = _rewire_layers(layers, len(stems), seed, swaps_per_edge)
    swaps = [performed for _, _, performed in rewired]
    _warn_shortfalls(layers, swaps, swaps_per_edge)
    (syn_lo, syn_hi, _), (sem_lo, sem_hi, _) = rewired
    return MultiplexLexicalNetwork(
        nodes=dict(net.nodes),
        syntactic_edges={(stems[u], stems[v]): 1 for u, v in zip(syn_lo, syn_hi)},
        synonym_edges={(stems[u], stems[v]) for u, v in zip(sem_lo, sem_hi)},
        provenance={**net.provenance, "null_model": {"seed": seed, "swaps": swaps}},
    )


def rewire_graph(graph: Indexed, seed: int, swaps_per_edge: int = SWAPS_PER_EDGE) -> Indexed:
    """Degree-preserving rewire of a plain simple graph, given and returned
    as an `Indexed` graph on the same stems."""
    n = len(graph.stems)
    layers = [_edge_lists(graph)]
    [(lo, hi, swaps)] = _rewire_layers(layers, n, seed, swaps_per_edge)
    _warn_shortfalls(layers, [swaps], swaps_per_edge)
    return Indexed(graph.stems, tuple([tuple(sorted(nb)) for nb in _neighbours(n, (lo, hi))]))


def _edge_forward_sets(n: int, *edge_lists: tuple[list[int], list[int]]) -> list[set[int]]:
    """later[u], the ids v > u joined to u by an edge of the (lo, hi) edge
    lists; a pair in two of them is held once."""
    later: list[set[int]] = [set() for _ in range(n)]
    for lo, hi in edge_lists:
        for u, v in zip(lo, hi):
            later[u].add(v)
    return later


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

def _realizations(measure: Callable[[list[tuple[list[int], list[int]]]], object], layers: list,
                  n: int, seeds: list[int], swaps_per_edge: int) -> list:
    """[measure(the (lo, hi) edge lists of `_rewire_layers`(layers, n, s, ...))
    for s in seeds], computed by `workers.map_chunks` in contiguous chunks of
    seeds, one per usable CPU. A worker returns each value with its swap
    counts, and the shortfalls are warned here in seed order, as one process
    warns them."""
    def realizations(chunk: list[int]) -> list:
        out = []
        for s in chunk:
            rewired = _rewire_layers(layers, n, s, swaps_per_edge)
            out.append((measure([(lo, hi) for lo, hi, _ in rewired]),
                        [swaps for _, _, swaps in rewired]))
        return out

    values = []
    for chunk in workers.map_chunks(realizations, seeds):
        for value, swaps in chunk:
            _warn_shortfalls(layers, swaps, swaps_per_edge)
            values.append(value)
    return values


# ---------------------------------------------------------------------------
# Mann-Whitney U

class MannWhitneyResult(NamedTuple):
    U: float
    p_value: float
    n1: int
    n2: int
    median1: float
    median2: float


def _midranks(values: list[float]) -> tuple[list[float], int]:
    """The 1-based ranks of values, tied values sharing their mean rank, and
    the tie term: the sum of t**3 - t over the groups of t equal values."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        t = j - i + 1
        tie_term += t**3 - t
        i = j + 1
    return ranks, tie_term


def mann_whitney_u(sample_a: list[float], sample_b: list[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U (U of the first sample), normal
    approximation with continuity and tie correction."""
    if not sample_a or not sample_b:
        raise ValueError("both samples must be nonempty")
    with stage("u_test", len(sample_a) + len(sample_b)):
        n1, n2 = len(sample_a), len(sample_b)
        ranks, tie_term = _midranks(list(sample_a) + list(sample_b))
        r1 = sum(ranks[:n1])
        u1 = n1 * n2 + n1 * (n1 + 1) / 2 - r1
        n = n1 + n2
        sigma_sq = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
        mu = n1 * n2 / 2
        if sigma_sq <= 0:
            p = 1.0
        else:
            diff = u1 - mu
            correction = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
            z = (diff - correction) / math.sqrt(sigma_sq)
            p = 2 * (1 - statistics.NormalDist().cdf(abs(z)))
            p = min(max(p, 1e-300), 1.0)
        return MannWhitneyResult(
            U=u1,
            p_value=p,
            n1=n1,
            n2=n2,
            median1=float(statistics.median(sample_a)),
            median2=float(statistics.median(sample_b)),
        )


# ---------------------------------------------------------------------------
# free-association benchmark

def load_free_associations(path: str | Path) -> Indexed:
    """The `Indexed` graph of a word<TAB>word edge list, read like the
    synonym and antonym tables: words stemmed with the stemmer used for
    network construction, self-pairs dropped."""
    pairs, _ = lexicons._load_pairs(path)
    return indexed({s for e in pairs for s in e}, pairs)


def _topic_distances(n: int, edge_lists: list[tuple[list[int], list[int]]],
                     queries: list[tuple[int, list[int]]]) -> list[list[int]]:
    """Per (topic id, ranked ids) query, the shortest-path distances on the
    union of the (lo, hi) edge lists of n nodes, from the topic to the ranked
    ids it reaches, in ranked order. One pass over the edges collects the
    neighbour sets of the queried ids: a ranked id in the topic's set is at
    distance 1, and one whose set meets it at distance 2. A query with a
    ranked id that neither test answers (further away, out of reach, or the
    topic itself) gets one `bfs`, on neighbour lists built once per call."""
    with stage("topic_distances", len(queries)):
        near: dict[int, set[int]] = {u: set() for topic, ranked in queries for u in (topic, *ranked)}
        for lo, hi in edge_lists:
            for u, v in zip(lo, hi):
                if u in near:
                    near[u].add(v)
                if v in near:
                    near[v].add(u)
        nbrs = None
        out = []
        for topic, ranked in queries:
            first, lengths = near[topic], None
            distances = []
            for v in ranked:
                if v in first:
                    distances.append(1)
                elif v != topic and not first.isdisjoint(near[v]):
                    distances.append(2)
                else:
                    if lengths is None:
                        if nbrs is None:
                            nbrs = _neighbours(n, *edge_lists)
                        lengths = bfs(nbrs, topic)
                    if v in lengths:
                        distances.append(lengths[v])
            out.append(distances)
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
    report header. Each realization's distances are those of `bfs` on
    `rewire_graph`'s result, computed on the oracle's sorted-stem ids.
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
    layers = [_edge_lists(oracle)]
    empirical: list[float] = []
    per_topic: dict[str, dict] = {}
    absent_stems = 0
    for topic, distances in zip(topics, _topic_distances(n, layers, queries)):
        skipped = len(others[topic]) - len(distances)
        absent_stems += skipped
        per_topic[topic] = {"empirical_distances": distances, "absent_stems": skipped}
        empirical.extend(float(d) for d in distances)

    def null_distances(edge_lists: list) -> list[float]:
        return [float(d) for distances in _topic_distances(n, edge_lists, queries) for d in distances]

    seeds = [seed + k for k in range(n_realizations)]
    null = [d for distances in _realizations(null_distances, layers, n, seeds, swaps_per_edge)
            for d in distances]
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
        "mann_whitney": result._asdict(),
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
    # the layers in the order configuration_rewire draws them
    layers = [_edge_lists(net.indexed("syntactic")), _edge_lists(net.indexed("synonym"))]
    n = len(net.nodes)

    def clustering(edge_lists: list) -> float:
        return _mean_clustering(_edge_forward_sets(n, *edge_lists))

    values = _realizations(clustering, layers, n, seeds, swaps_per_edge)
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
