"""Affect analyses over network neighbourhoods.

Valence auras take the mode of neighbour valence labels; emotional
profiles count which of the eight basic emotions the associates of a
concept elicit, substituting antonyms for associates syntactically linked
to a negation; Louvain communities and induced neighbourhood subgraphs
support the cluster-level views.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import MultiplexLexicalNetwork
from .lexicons import EMOTIONS, AntonymLexicon, EmotionLexicon

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


@dataclass(frozen=True)
class AuraReport:
    target: str
    counts: dict[str, int]  # positive / neutral / negative
    fractions: dict[str, float]  # over rated neighbours
    unrated: int
    aura: str  # positive | neutral | negative | mixed | undetermined

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "counts": self.counts,
            "fractions": self.fractions,
            "unrated_neighbors": self.unrated,
            "aura": self.aura,
        }


def valence_aura(net: MultiplexLexicalNetwork, target: str) -> AuraReport:
    """Mode of valence labels among the target's distinct aggregate
    neighbours; ties are reported as 'mixed', zero rated neighbours as
    'undetermined'. Unrated neighbours are excluded from fractions."""
    adj = net.adjacency()
    if target not in adj:
        raise KeyError(f"unknown node {target!r}")
    if not adj[target]:
        raise ValueError(f"node {target!r} has no neighbors")
    counts = {"positive": 0, "neutral": 0, "negative": 0}
    unrated = 0
    for nb in adj[target]:
        label = net.nodes[nb].valence_label
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


@dataclass(frozen=True)
class EmotionalProfile:
    target: str
    counts: dict[str, int]  # per emotion
    fractions: dict[str, float]  # of emotion occurrences; empty if none
    contributors: list[tuple[str, str, bool]]  # (associate, emotion, negated antonym?)
    missing_antonyms: int

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "counts": self.counts,
            "fractions": self.fractions,
            "contributors": [list(c) for c in self.contributors],
            "missing_antonyms": self.missing_antonyms,
        }


def emotional_profile(
    net: MultiplexLexicalNetwork,
    target: str,
    emotions: EmotionLexicon,
    antonyms: AntonymLexicon,
) -> EmotionalProfile:
    """Emotion counts over the target's aggregate-layer associates.

    An associate that is syntactically adjacent to a negation marker also
    contributes the emotions of its antonym, flagged as negated. Negation
    markers themselves contribute nothing directly."""
    aggregate = net.adjacency()
    if target not in aggregate:
        raise KeyError(f"unknown node {target!r}")
    syntactic = net.adjacency("syntactic")
    negation_nodes = {s for s, c in net.nodes.items() if c.is_negation_marker}

    counts = {e: 0 for e in EMOTIONS}
    contributors: list[tuple[str, str, bool]] = []
    missing_antonyms = 0
    for associate in sorted(aggregate[target]):
        if associate in negation_nodes:
            continue
        for emotion in sorted(emotions.emotions(associate)):
            counts[emotion] += 1
            contributors.append((associate, emotion, False))
        if not negation_nodes.isdisjoint(syntactic[associate]):
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


@dataclass(frozen=True)
class CommunityPartition:
    communities: dict[str, int]  # stem -> community id
    modularity_value: float
    seed: int

    def members(self, community_id: int) -> set[str]:
        return {s for s, cid in self.communities.items() if cid == community_id}

    def community_of(self, target: str) -> int:
        return self.communities[target]


def louvain_partition(net: MultiplexLexicalNetwork, seed: int) -> CommunityPartition:
    """Seeded Louvain modularity optimization on the aggregate graph
    (resolution 1); deterministic for a fixed seed."""
    from networkx.algorithms.community import louvain_communities, modularity
    g = net.aggregate_graph()
    if g.number_of_nodes() == 0:
        raise ValueError("empty network")
    communities = louvain_communities(g, seed=seed)
    communities = sorted((sorted(c) for c in communities), key=lambda c: c[0])
    assignment = {s: cid for cid, comm in enumerate(communities) for s in comm}
    q = modularity(g, [set(c) for c in communities])
    return CommunityPartition(communities=assignment, modularity_value=q, seed=seed)


def neighborhood_subgraph(
    net: MultiplexLexicalNetwork,
    target: str,
    mode: str = "neighbors",
    partition: CommunityPartition | None = None,
) -> MultiplexLexicalNetwork:
    """Induced subnetwork over the target and either its aggregate
    neighbours or its whole Louvain community."""
    adj = net.adjacency()
    if target not in adj:
        raise KeyError(f"unknown node {target!r}")
    if mode == "neighbors":
        keep = {target} | adj[target]
    elif mode == "community":
        if partition is None:
            raise ValueError("community mode requires a partition")
        keep = partition.members(partition.community_of(target)) | {target}
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
        provenance={**net.provenance, "subgraph_of": target, "subgraph_mode": mode},
    )
    sub.validate()
    return sub


def classify_edges(net: MultiplexLexicalNetwork) -> dict[tuple[str, str], str]:
    """Edge classes matching the figure legend: positive-positive,
    negative-negative, mixed (one of each), synonym, other."""
    classes: dict[tuple[str, str], str] = {}
    for a, b in net.syntactic_edges:
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
        if pair not in classes:
            classes[pair] = "synonym"
    return classes
