"""Affect analyses over network neighbourhoods.

Valence auras take the mode of neighbour valence labels; emotional
profiles count which of the eight basic emotions the associates of a
concept elicit, substituting antonyms for associates syntactically linked
to a negation; Louvain communities and induced neighbourhood subgraphs
support the cluster-level views. Louvain is networkx's, partition for
partition, but its local moving re-evaluates a node that stayed put only
after the total of its own or of a neighbour's community has changed.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .build import MultiplexLexicalNetwork, _ordered
from . import lexicons, stage

__all__ = [
    "AuraReport",
    "EmotionalProfile",
    "CommunityPartition",
    "valence_aura",
    "emotional_profile",
    "louvain_partition",
    "neighborhood_subgraph",
    "classify_edges",
]


class AuraReport(NamedTuple):
    target: str
    counts: dict[str, int]  # positive / neutral / negative
    fractions: dict[str, float]  # over rated neighbours
    unrated_neighbors: int
    aura: str  # positive | neutral | negative | mixed | undetermined


def valence_aura(net: MultiplexLexicalNetwork, target: str) -> AuraReport:
    """Mode of valence labels among the target's distinct aggregate
    neighbours; ties are reported as 'mixed', zero rated neighbours as
    'undetermined'. Unrated neighbours are excluded from fractions."""
    with stage("aura", 1):
        stems, nbrs = graph = net.indexed()
        neighbours = nbrs[graph.id_of(target)]
        if not neighbours:
            raise ValueError(f"node {target!r} has no neighbors")
        counts = {"positive": 0, "neutral": 0, "negative": 0}
        unrated = 0
        for v in neighbours:
            label = net.nodes[stems[v]].valence_label
            if label == "unrated":
                unrated += 1
            else:
                counts[label] += 1
        rated = sum(counts.values())
        if rated == 0:
            return AuraReport(target, counts, {}, unrated, "undetermined")
        fractions = {label: n / rated for label, n in counts.items()}
        best = max(counts.values())
        winners = [label for label, n in counts.items() if n == best]
        aura = winners[0] if len(winners) == 1 else "mixed"
        return AuraReport(target, counts, fractions, unrated, aura)


class EmotionalProfile(NamedTuple):
    target: str
    counts: dict[str, int]  # per emotion
    fractions: dict[str, float]  # of emotion occurrences; empty if none
    contributors: list[tuple[str, str, bool]]  # (associate, emotion, negated antonym?)
    missing_antonyms: int


def emotional_profile(
    net: MultiplexLexicalNetwork,
    target: str,
    emotions: lexicons.EmotionLexicon,
    antonyms: lexicons.AntonymLexicon,
) -> EmotionalProfile:
    """Emotion counts over the target's aggregate-layer associates.

    An associate that is syntactically adjacent to a negation marker also
    contributes the emotions of its antonym, flagged as negated. Negation
    markers themselves contribute nothing directly."""
    with stage("profile", 1):
        stems, aggregate = graph = net.indexed()
        associates = aggregate[graph.id_of(target)]  # ids in sorted-stem order
        syntactic = net.indexed("syntactic").nbrs
        nodes = net.nodes  # negation flags are read for the visited nodes only

        counts = {e: 0 for e in lexicons.EMOTIONS}
        contributors: list[tuple[str, str, bool]] = []
        missing_antonyms = 0
        for v in associates:
            associate = stems[v]
            if nodes[associate].is_negation_marker:
                continue
            for emotion in sorted(emotions.emotions(associate)):
                counts[emotion] += 1
                contributors.append((associate, emotion, False))
            if any(nodes[stems[w]].is_negation_marker for w in syntactic[v]):
                antonym = antonyms.antonym(associate)
                if antonym is None:
                    missing_antonyms += 1
                else:
                    for emotion in sorted(emotions.emotions(antonym)):
                        counts[emotion] += 1
                        contributors.append((antonym, emotion, True))
        total = sum(counts.values())
        fractions = {e: n / total for e, n in counts.items()} if total else {}
        return EmotionalProfile(target, counts, fractions, contributors, missing_antonyms)


class CommunityPartition(NamedTuple):
    communities: dict[str, int]  # stem -> community id
    modularity: float
    seed: int


def louvain_partition(net: MultiplexLexicalNetwork, seed: int) -> CommunityPartition:
    """Seeded Louvain modularity optimization on the aggregate graph
    (resolution 1, threshold 1e-7; Blondel et al., J. Stat. Mech. 2008).

    A port of networkx 3.x's `louvain_communities` and `modularity`: the
    same seed gives the same partition and the same modularity float."""
    with stage("louvain", len(net.nodes)):
        (stems, syntactic), (_, synonym) = net.indexed("syntactic"), net.indexed("synonym")
        if not stems:
            raise ValueError("empty network")
        # networkx's neighbour order: sorted syntactic neighbours, then the sorted
        # synonym-only ones, then the graph rebuilt in its edge iteration order
        inserted = [dict.fromkeys(a + b, 1) for a, b in zip(syntactic, synonym)]
        graph = _level_graph(len(stems), _edges(inserted))
        if not any(graph):
            raise ValueError("network has no edges")
        m = sum(map(_degree, graph, range(len(graph)))) / 2
        rng = random.Random(seed)

        # members[u]: the original nodes that node u of the current level stands for
        level, members = graph, [{u} for u in range(len(graph))]
        mod = _modularity(level, members)
        inner, _ = _one_level(level, m, rng)
        while True:
            new_mod = _modularity(level, inner)
            if new_mod - mod <= 1e-7:
                break
            mod = new_mod
            level, members = _gen_graph(level, inner), _merged(inner, members)
            inner, moved = _one_level(level, m, rng)
            if not moved:
                break

        communities = sorted(sorted(c) for c in _merged(inner, members))
        assignment = {stems[u]: cid for cid, comm in enumerate(communities) for u in comm}
        q = _modularity(graph, [set(c) for c in communities])
        return CommunityPartition(communities=assignment, modularity=q, seed=seed)


def _edges(adj: list[dict[int, int]]):
    """(u, v, weight) in networkx's edge order: by u, then u's neighbour order."""
    return ((u, v, w) for u, nbrs in enumerate(adj) for v, w in nbrs.items() if v >= u)


def _level_graph(n: int, edges) -> list[dict[int, int]]:
    """Neighbour -> weight maps of nodes 0..n-1; a repeated edge adds its weight."""
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, w in edges:
        adj[u][v] = adj[v][u] = w + adj[u].get(v, 0)
    return adj


def _degree(nbrs: dict[int, int], u: int) -> int:
    """Weighted degree; a self-loop counts twice."""
    return sum(nbrs.values()) + nbrs.get(u, 0)


def _modularity(adj: list[dict[int, int]], communities: list[set[int]]) -> float:
    degrees = list(map(_degree, adj, range(len(adj))))
    deg_sum = sum(degrees)
    m = deg_sum / 2
    norm = 1 / deg_sum**2

    def contribution(comm: set[int]) -> float:
        internal = sum(w for u in comm for v, w in adj[u].items() if v >= u and v in comm)
        degree = sum(degrees[u] for u in comm)
        return internal / m - degree * degree * norm

    return sum(map(contribution, communities))


def _one_level(adj, m, rng):
    """Move each node, in one shuffled order, to the neighbour community of
    largest positive gain until no move helps; returns the non-empty
    communities of this level's nodes and whether any node moved.

    networkx's sweeps, float for float, except that a node that stayed put is
    evaluated again only once the total of its own community or of one of its
    neighbours' communities has changed (fast local moving, Traag 2015,
    without its queue). Those are its only inputs, and totals are integers, so
    a node that stays leaves every total as it was: a skipped node would have
    stayed, and the visit order, the moves and the partition are networkx's."""
    n = len(adj)
    node2com = list(range(n))
    inner = [{u} for u in range(n)]
    degrees = list(map(_degree, adj, range(n)))
    stot = list(degrees)
    nbrs = [[(v, w) for v, w in a.items() if v != u] for u, a in enumerate(adj)]
    two_m2 = 2 * m**2
    order = list(range(n))
    rng.shuffle(order)
    # changed[c]: the tick at which community c's total last changed;
    # seen[u]: the tick at which node u last stayed put, -1 after it moved
    changed = [0] * n
    seen = [-1] * n
    tick = 0
    moves = 1
    improvement = False
    while moves > 0:
        moves = 0
        for u in order:
            since = seen[u]
            if since >= 0 and changed[node2com[u]] <= since:
                for v, _ in nbrs[u]:
                    if changed[node2com[v]] > since:
                        break
                else:
                    continue
            tick += 1
            best_mod = 0
            best_com = own = node2com[u]
            weights2com: dict[int, float] = {}
            for v, w in nbrs[u]:
                com = node2com[v]
                weights2com[com] = weights2com.get(com, 0.0) + w
            degree = degrees[u]
            stot[own] -= degree
            remove_cost = -weights2com.setdefault(own, 0.0) / m + (stot[own] * degree) / two_m2
            for com, w in weights2com.items():
                gain = remove_cost + w / m - (stot[com] * degree) / two_m2
                if gain > best_mod:
                    best_mod = gain
                    best_com = com
            stot[best_com] += degree
            if best_com == own:
                seen[u] = tick
            else:
                inner[own].remove(u)
                inner[best_com].add(u)
                changed[own] = changed[best_com] = tick
                seen[u] = -1
                improvement = True
                moves += 1
                node2com[u] = best_com
    return [c for c in inner if c], improvement


def _gen_graph(adj, inner):
    """One node per community of this level, edge weights summed in edge order."""
    node2com = {u: i for i, comm in enumerate(inner) for u in comm}
    edges = ((node2com[u], node2com[v], w) for u, v, w in _edges(adj))
    return _level_graph(len(inner), edges)


def _merged(inner, members):
    """The original nodes of each community of this level."""
    return [set().union(*(members[u] for u in comm)) for comm in inner]


def neighborhood_subgraph(
    net: MultiplexLexicalNetwork, target: str, partition: CommunityPartition
) -> MultiplexLexicalNetwork:
    """Induced subnetwork over the target's Louvain community."""
    if target not in net.nodes:
        raise KeyError(f"unknown node {target!r}")
    community = partition.communities[target]
    keep = {s for s, cid in partition.communities.items() if cid == community}
    sub = MultiplexLexicalNetwork(
        nodes={s: net.nodes[s] for s in keep},
        syntactic_edges={
            pair: count
            for pair, count in net.syntactic_edges.items()
            if pair[0] in keep and pair[1] in keep
        },
        synonym_edges={
            pair for pair in net.synonym_edges if pair[0] in keep and pair[1] in keep
        },
        provenance={**net.provenance, "subgraph_of": target},
    )
    sub.validate()
    return sub


def classify_edges(net: MultiplexLexicalNetwork) -> dict[tuple[str, str], str]:
    """Edge classes matching the figure legend: positive-positive,
    negative-negative, mixed (one of each), synonym, other. Each pair is
    keyed (min, max) and classed once, whichever way each layer stores it."""
    classes: dict[tuple[str, str], str] = {}
    for pair in net.syntactic_edges:
        a, b = _ordered(*pair)
        la = net.nodes[a].valence_label
        lb = net.nodes[b].valence_label
        if la == "positive" and lb == "positive":
            classes[(a, b)] = "positive-positive"
        elif la == "negative" and lb == "negative":
            classes[(a, b)] = "negative-negative"
        elif {la, lb} == {"positive", "negative"}:
            classes[(a, b)] = "mixed"
        else:
            classes[(a, b)] = "other"
    for pair in net.synonym_edges:
        classes.setdefault(_ordered(*pair), "synonym")
    return classes
