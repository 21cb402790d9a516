import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from networkx.algorithms.community import louvain_communities, modularity

from tfmn.analysis import (
    CommunityPartition,
    _degree,
    _level_graph,
    _one_level,
    classify_edges,
    emotional_profile,
    louvain_partition,
    neighborhood_subgraph,
    valence_aura,
)
from tfmn.build import Concept, MultiplexLexicalNetwork
from tfmn.lexicons import AntonymLexicon, EmotionLexicon

from conftest import make_network
from louvain_reference import reference_one_level


# ---------------------------------------------------------------------------
# valence auras


def test_aura_positive_majority():
    net = make_network(
        {("t", "p1"): 1, ("t", "p2"): 1, ("t", "n1"): 1},
        labels={"p1": "positive", "p2": "positive", "n1": "negative"},
    )
    report = valence_aura(net, "t")
    assert report.aura == "positive"
    assert report.counts == {"positive": 2, "neutral": 0, "negative": 1}
    assert report.fractions["positive"] == pytest.approx(2 / 3)


def test_aura_tie_is_mixed():
    net = make_network(
        {("t", "p1"): 1, ("t", "n1"): 1},
        labels={"p1": "positive", "n1": "negative"},
    )
    assert valence_aura(net, "t").aura == "mixed"


def test_aura_all_unrated_is_undetermined():
    net = make_network({("t", "u1"): 1, ("t", "u2"): 1})
    report = valence_aura(net, "t")
    assert report.aura == "undetermined"
    assert report.unrated_neighbors == 2
    assert report.fractions == {}
    # a NamedTuple whose fields are the keys `aura` writes
    assert report._asdict() == {"target": "t", "counts": {"positive": 0, "neutral": 0, "negative": 0},
                                "fractions": {}, "unrated_neighbors": 2, "aura": "undetermined"}


def test_aura_counts_distinct_neighbors_once():
    # edge multiplicity must not inflate the count
    net = make_network({("t", "p1"): 5}, labels={"p1": "positive"})
    assert valence_aura(net, "t").counts["positive"] == 1


def test_aura_includes_synonym_neighbors():
    net = make_network(
        {("t", "p1"): 1},
        synonym={("t", "n1")},
        labels={"p1": "positive", "n1": "negative"},
    )
    assert valence_aura(net, "t").aura == "mixed"


def test_aura_unknown_node():
    net = make_network({("a", "b"): 1})
    with pytest.raises(KeyError):
        valence_aura(net, "zzz")


def test_aura_isolated_node():
    net = make_network({("a", "b"): 1})
    net.nodes["lone"] = net.nodes["a"]
    with pytest.raises(ValueError):
        valence_aura(net, "lone")


# ---------------------------------------------------------------------------
# emotional profiles


EMO = EmotionLexicon(
    entries={
        "joi": frozenset({"joy"}),
        "fear": frozenset({"fear"}),
        "appreci": frozenset({"trust", "joy"}),
        "disgust": frozenset({"disgust"}),
    },
    skipped_rows=0,
)
ANT = AntonymLexicon(
    pairs=frozenset({("appreci", "disgust")}),
    lookup={"appreci": "disgust", "disgust": "appreci"},
)


def test_profile_counts_plain_associates():
    net = make_network({("t", "joi"): 1, ("t", "fear"): 1})
    profile = emotional_profile(net, "t", EMO, ANT)
    assert profile.counts["joy"] == 1
    assert profile.counts["fear"] == 1
    assert profile.counts["anger"] == 0
    assert ("joi", "joy", False) in profile.contributors


def test_profile_fractions_normalize_over_occurrences():
    net = make_network({("t", "joi"): 1, ("t", "appreci"): 1})
    profile = emotional_profile(net, "t", EMO, ANT)
    # occurrences: joy (from joi), joy + trust (from appreci)
    assert profile.fractions["joy"] == pytest.approx(2 / 3)
    assert profile.fractions["trust"] == pytest.approx(1 / 3)


def test_negated_associate_adds_antonym_emotions():
    # t - appreci - not: appreci is negation-adjacent, so disgust's
    # emotions are added too, flagged as negated
    net = make_network({("t", "appreci"): 1, ("appreci", "not"): 1})
    profile = emotional_profile(net, "t", EMO, ANT)
    assert profile.counts["disgust"] == 1
    assert profile.counts["trust"] == 1  # direct emotions stay
    assert ("disgust", "disgust", True) in profile.contributors
    assert profile.missing_antonyms == 0


def test_negated_associate_without_antonym_counted():
    net = make_network({("t", "fear"): 1, ("fear", "not"): 1})
    profile = emotional_profile(net, "t", EMO, ANT)
    assert profile.missing_antonyms == 1
    assert profile.counts["fear"] == 1


def test_negation_marker_contributes_nothing_directly():
    net = make_network({("t", "not"): 1, ("t", "joi"): 1})
    profile = emotional_profile(net, "t", EMO, ANT)
    assert sum(profile.counts.values()) == 1


def test_negation_adjacency_is_syntactic_only():
    # the negation link to appreci lives on the synonym layer, so no
    # antonym substitution happens
    net = make_network({("t", "appreci"): 1}, synonym={("appreci", "not")})
    profile = emotional_profile(net, "t", EMO, ANT)
    assert profile.counts["disgust"] == 0


def test_profile_empty_emotions():
    net = make_network({("t", "desk"): 1})
    profile = emotional_profile(net, "t", EMO, ANT)
    assert sum(profile.counts.values()) == 0
    assert profile.fractions == {}


# ---------------------------------------------------------------------------
# communities


def two_cliques():
    edges = {}
    for group in ("abc", "xyz"):
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                edges[(u, v)] = 1
    edges[("c", "x")] = 1  # bridge
    return make_network(edges)


def test_louvain_finds_planted_cliques():
    part = louvain_partition(two_cliques(), seed=1)
    ids = part.communities
    assert ids["a"] == ids["b"] == ids["c"]
    assert ids["x"] == ids["y"] == ids["z"]
    assert ids["a"] != ids["x"]
    assert part.modularity > 0.3


def test_louvain_deterministic_for_seed():
    a = louvain_partition(two_cliques(), seed=7)
    b = louvain_partition(two_cliques(), seed=7)
    assert a == b


def test_community_ids_stable():
    part = louvain_partition(two_cliques(), seed=1)
    # ids assigned in lexicographic order of each community's first member
    assert part.communities["a"] == 0
    assert part.communities["x"] == 1


def reference_louvain_partition(net: MultiplexLexicalNetwork, seed: int) -> CommunityPartition:
    """networkx's Louvain, as louvain_partition called it before the port."""
    g = net.aggregate_graph()
    communities = louvain_communities(g, seed=seed)
    communities = sorted((sorted(c) for c in communities), key=lambda c: c[0])
    assignment = {s: cid for cid, comm in enumerate(communities) for s in comm}
    q = modularity(g, [set(c) for c in communities])
    return CommunityPartition(communities=assignment, modularity=q, seed=seed)


def _assert_same_as_networkx(net, seed):
    part = louvain_partition(net, seed)
    ref = reference_louvain_partition(net, seed)
    assert part == ref  # the modularity floats compare with ==
    assert list(part.communities) == list(ref.communities)


@st.composite
def two_layer_networks(draw) -> MultiplexLexicalNetwork:
    """Two layers that may share pairs, plus isolated nodes; at least one edge."""
    stems = sorted(draw(st.sets(st.text("abcdefghij", min_size=1, max_size=3), min_size=2, max_size=24)))
    pairs = [(a, b) for i, a in enumerate(stems) for b in stems[i + 1:]]
    density = draw(st.floats(0.05, 0.6))
    syntactic = {p: draw(st.integers(1, 5)) for p in pairs if draw(st.floats(0, 1)) < density}
    synonym = {p for p in pairs if draw(st.floats(0, 1)) < density / 2}
    assume(syntactic or synonym)
    net = make_network(syntactic, synonym)
    for s in stems:
        net.nodes.setdefault(s, Concept("unrated", None, frozenset()))
    return net


@settings(max_examples=300, deadline=None)
@given(two_layer_networks(), st.integers(-5, 2**32))
def test_louvain_matches_networkx(net, seed):
    _assert_same_as_networkx(net, seed)


def _preferential_network(n: int, seed: int) -> MultiplexLexicalNetwork:
    """Preferential attachment (3 edges per node) plus n // 3 random synonym
    pairs, so that Louvain runs several levels."""
    rng = random.Random(seed)
    names = [f"w{i:03d}" for i in range(n)]
    syntactic = {(a, b): 1 for i, a in enumerate(names[:4]) for b in names[i + 1:4]}
    ends = [s for pair in syntactic for s in pair]
    for new in names[4:]:
        targets: set[str] = set()
        while len(targets) < 3:
            targets.add(rng.choice(ends))
        for old in sorted(targets):
            syntactic[(old, new)] = 1
            ends += [new, old]
    synonym = set()
    while len(synonym) < n // 3:
        synonym.add(tuple(sorted(rng.sample(names, 2))))
    return make_network(syntactic, synonym)


# (nodes, network seed, Louvain seed); in the first two a level that still
# moves nodes gains less than 1e-2, so a coarser stop threshold shows
@pytest.mark.parametrize("n, net_seed, seed", [(600, 0, 2), (600, 2, 5), (300, 1, 0), (300, 1, 7)])
def test_louvain_matches_networkx_on_larger_networks(n, net_seed, seed):
    _assert_same_as_networkx(_preferential_network(n, net_seed), seed)


@st.composite
def level_graphs(draw) -> list[dict[int, int]]:
    """The weighted graphs that Louvain's levels above 0 see: repeated edges
    add up, and self-loops carry the weight inside a merged community."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(1, 6)), min_size=1, max_size=4 * n))
    return _level_graph(n, edges)


@settings(max_examples=400, deadline=None)
@given(level_graphs(), st.integers(-5, 2**64))
def test_one_level_matches_the_full_sweeps(adj, seed):
    m = sum(map(_degree, adj, range(len(adj)))) / 2
    rng, reference_rng = random.Random(seed), random.Random(seed)
    assert _one_level(adj, m, rng) == reference_one_level(adj, m, reference_rng)
    assert rng.random() == reference_rng.random()  # the same draws, no more


class _FixedOrder:
    """Stands in for the RNG of _one_level, whose one draw is the visit order."""

    def __init__(self, order):
        self.order = order

    def shuffle(self, order):
        order[:] = self.order


def test_one_level_revisits_a_node_whose_own_community_grew():
    """Node 1's only neighbour is 5. In sweep 1 node 1 joins 5's community,
    2 joins it too, and 5 leaves for 3's: node 1 now sits with 2, which is
    not its neighbour. In sweep 2 it stays, then 0 (not its neighbour
    either) joins that community. Only the total of node 1's own community
    changed, and that alone makes joining 5 worth it in sweep 3. Node 4
    carries the self-loop weight of a merged community."""
    adj = _level_graph(6, [(0, 0, 1), (1, 5, 2), (2, 5, 6), (3, 5, 9), (0, 2, 4), (1, 1, 3),
                           (4, 4, 18), (3, 3, 5)])
    m = sum(map(_degree, adj, range(len(adj)))) / 2
    order = [1, 0, 2, 4, 5, 3]
    expected = ([{1, 3, 5}, {4}, {0, 2}], True)
    assert reference_one_level(adj, m, _FixedOrder(order)) == expected
    assert _one_level(adj, m, _FixedOrder(order)) == expected


def test_louvain_without_edges_rejected():
    net = make_network({("a", "b"): 1})
    net = MultiplexLexicalNetwork(net.nodes, {}, set(), net.provenance)
    with pytest.raises(ValueError, match="network has no edges"):
        louvain_partition(net, 0)
    with pytest.raises(ValueError, match="empty network"):
        louvain_partition(MultiplexLexicalNetwork({}, {}, set(), {}), 0)


# ---------------------------------------------------------------------------
# subgraphs and edge classes


def test_community_subgraph():
    net = two_cliques()
    net.synonym_edges.update({("a", "b"), ("b", "y")})
    part = louvain_partition(net, seed=1)
    sub = neighborhood_subgraph(net, "a", part)
    assert set(sub.nodes) == {"a", "b", "c"}
    assert set(sub.syntactic_edges) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert sub.synonym_edges == {("a", "b")}  # ("b", "y") leaves the community
    assert sub.provenance["subgraph_of"] == "a"


def test_community_subgraph_of_unknown_target():
    net = two_cliques()
    with pytest.raises(KeyError, match="unknown node 'q'"):
        neighborhood_subgraph(net, "q", louvain_partition(net, seed=1))


def test_classify_edges():
    net = make_network(
        {("p1", "p2"): 1, ("n1", "n2"): 1, ("n1", "p1"): 1, ("p2", "u"): 1},
        synonym={("n2", "p2"), ("p1", "p2")},
        labels={"p1": "positive", "p2": "positive", "n1": "negative", "n2": "negative"},
    )
    classes = classify_edges(net)
    assert classes[("p1", "p2")] == "positive-positive"
    assert classes[("n1", "n2")] == "negative-negative"
    assert classes[("n1", "p1")] == "mixed"
    assert classes[("p2", "u")] == "other"
    assert classes[("n2", "p2")] == "synonym"


def test_classify_edges_keys_a_pair_stored_both_ways_once():
    # validate accepts one orientation per layer, so a hand-built network may
    # hold (b, a) in one layer and (a, b) in the other: one edge, one class
    nodes = {s: Concept("positive", None, frozenset()) for s in "abc"}
    net = MultiplexLexicalNetwork(nodes, {("b", "a"): 1, ("b", "c"): 1}, {("a", "b")}, {})
    net.validate()
    assert classify_edges(net) == {("a", "b"): "positive-positive", ("b", "c"): "positive-positive"}
