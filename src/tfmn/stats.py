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

The realizations of an ensemble are spread over forked worker processes, one
per usable CPU, and gathered in seed order, so a report does not depend on
the number of workers.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

from .build import Adjacency, Indexed, MultiplexLexicalNetwork, adjacency, indexed
from .lexicons import _load_pairs
from .metrics import bfs, mean_clustering

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


def _rewire_edge_set(
    graph: Indexed, rng: random.Random, swaps_per_edge: int
) -> tuple[set[tuple[str, str]], int]:
    """Double edge swaps on an undirected simple graph. Returns the rewired
    edges as stem pairs and the number of swaps performed; warns when the
    attempt budget runs out before swaps_per_edge swaps per edge are made."""
    if swaps_per_edge < 1:
        raise ValueError(f"swaps_per_edge must be at least 1, got {swaps_per_edge}")
    stems, n = graph.stems, len(graph.stems)
    # u <= v keeps a self-loop; the (lo, hi) pairs come out sorted
    pairs = [(u, v) for u, nbrs in enumerate(graph.nbrs) for v in nbrs if u <= v]
    if any(u == v for u, v in pairs):
        raise ValueError("graph is not simple: self-loop")
    m = len(pairs)
    if m < 2:
        return {(stems[u], stems[v]) for u, v in pairs}, 0
    lo, hi = map(list, zip(*pairs))
    keys = {u * n + v for u, v in pairs}
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
        keys.remove(lo[i] * n + hi[i])
        keys.remove(lo[j] * n + hi[j])
        keys.add(new1)
        keys.add(new2)
        lo[i], hi[i] = a, c
        lo[j], hi[j] = b, d
        performed += 1
        if performed == target:
            break
    else:
        warnings.warn(f"rewiring fell short: {performed or 'no'} swaps of {target} "
                      f"in {attempts} attempts on {m} edges")
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


def rewire_graph(adj: Adjacency, seed: int, swaps_per_edge: int = SWAPS_PER_EDGE) -> Adjacency:
    """Degree-preserving rewire of a plain simple graph, given and returned
    as an adjacency map with the same nodes."""
    rewired, _ = _rewire_edge_set(indexed(adj), random.Random(seed), swaps_per_edge)
    return adjacency(adj, rewired)


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

def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_seeds(fn: Callable[[int], object], seeds: list[int]) -> list:
    """[fn(s) for s in seeds], computed in contiguous chunks of seeds by up to
    one forked process per usable CPU, the first chunk by this process.

    fn returns plain numbers, which each worker pickles back through a pipe
    together with the warnings it recorded. The chunks are read in seed
    order: warnings are issued again here, as if raised in this process, and
    a worker's exception is raised again with its type and message. Workers
    leave through os._exit, so they flush no inherited buffer and run no
    exit handler of this process. Every worker is killed and reaped before
    this returns or raises. Workers are forked, not spawned, because fn is a
    closure, which does not pickle; the commands start no thread, so the fork
    copies no lock held by another thread.
    """
    workers = min(len(seeds), _usable_cpus())
    if workers <= 1:
        return [fn(s) for s in seeds]
    import pickle
    import signal

    bounds = [len(seeds) * k // workers for k in range(workers + 1)]
    chunks = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for chunk in chunks[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _worker(fn, chunk, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results = [fn(s) for s in chunks[0]]
        registry = globals().setdefault("__warningregistry__", {})
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"null-model worker {pid} exited without a result")
            outcome = pickle.loads(data)  # written by the worker forked above
            if outcome[0] == "error":
                raise outcome[1]
            _, values, caught = outcome
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno,
                                       module=__name__, registry=registry)
            results.extend(values)
        return results
    finally:
        for pid, read_end in children:
            os.close(read_end)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _worker(fn, chunk: list[int], write_end: int) -> None:
    """Body of a forked worker: write the pickled outcome of its chunk to the
    pipe and exit, never returning into the caller's stack. A worker that
    exits without writing is reported by the parent."""
    import pickle

    code = 1
    try:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values = [fn(s) for s in chunk]
            outcome = ("ok", values, [(w.message, w.category, w.filename, w.lineno)
                                      for w in caught])
        except Exception as exc:  # raised again by the parent
            outcome = ("error", exc)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


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

def load_free_associations(path: str | Path) -> Adjacency:
    """The adjacency map of a word<TAB>word edge list, read like the synonym
    and antonym tables: words stemmed with the stemmer used for network
    construction, self-pairs dropped."""
    pairs, _ = _load_pairs(path)
    return adjacency({s for e in pairs for s in e}, pairs)


def _topic_distances(adj: Adjacency, topic: str, stems: list[str]) -> tuple[list[int], int]:
    lengths = bfs(adj, topic)
    others = [s for s in stems if s != topic]
    distances = [lengths[s] for s in others if s in lengths]
    return distances, len(others) - len(distances)


def benchmark_topic_relevance(
    rankings: dict[str, list[str]],
    oracle: Adjacency,
    n_realizations: int = 50,
    seed: int = 0,
    swaps_per_edge: int = SWAPS_PER_EDGE,
) -> dict:
    """Compare oracle distances from ranked stems to their topics against
    the same distances on degree-preserving rewires of the oracle.

    The oracle (free-association) network is the randomization target,
    since distances are measured on it; this choice is recorded in the
    report header.
    """
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    usable = {t: stems for t, stems in rankings.items() if t in oracle}
    skipped_topics = sorted(set(rankings) - set(usable))
    if not usable:
        raise ValueError("no ranking topic is present in the oracle network")
    if skipped_topics:
        warnings.warn(f"topics absent from oracle skipped: {skipped_topics}")

    empirical: list[float] = []
    per_topic: dict[str, dict] = {}
    absent_stems = 0
    for topic in sorted(usable):
        distances, skipped = _topic_distances(oracle, topic, usable[topic])
        absent_stems += skipped
        per_topic[topic] = {"empirical_distances": distances, "absent_stems": skipped}
        empirical.extend(float(d) for d in distances)

    def null_distances(s: int) -> list[float]:
        rewired = rewire_graph(oracle, s, swaps_per_edge)
        return [float(d) for topic in sorted(usable)
                for d in _topic_distances(rewired, topic, usable[topic])[0]]

    seeds = [seed + k for k in range(n_realizations)]
    null = [d for distances in _map_seeds(null_distances, seeds) for d in distances]
    empirical.sort()
    null.sort()
    result = mann_whitney_u(empirical, null)
    return {
        "randomization_target": "free-association oracle network",
        "topics": sorted(usable),
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
    mean +/- standard deviation; z-score None if the ensemble has no spread."""
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    seeds = [seed + k for k in range(n_realizations)]
    empirical = mean_clustering(net)
    values = _map_seeds(
        lambda s: mean_clustering(configuration_rewire(net, s, swaps_per_edge)), seeds)
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
