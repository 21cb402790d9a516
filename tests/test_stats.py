import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from tfmn import stats
from tfmn.build import Concept, MultiplexLexicalNetwork, _ordered, indexed, save_network
from tfmn.lexicons import LexiconError
from tfmn.metrics import _edge_forward_sets, _edge_lists, _mean_clustering, bfs, mean_clustering
from tfmn.stats import (
    SWAPS_PER_EDGE,
    benchmark_topic_relevance,
    clustering_null_test,
    configuration_rewire,
    load_free_associations,
    mann_whitney_u,
    null_ensemble,
    rewire_graph,
)
from tfmn.stemmer import stem

from conftest import DATA, assert_no_child_left, failing_kernel, load_tool, make_network


def ring_net(n=20, extra=5):
    """A ring plus a few chords: enough edges for swaps to succeed."""
    edges = {(f"n{i:02d}", f"n{(i + 1) % n:02d}"): 1 for i in range(n)}
    edges.update({(f"n{i:02d}", f"n{(i + n // 2) % n:02d}"): 1 for i in range(extra)})
    return make_network({(min(a, b), max(a, b)): 1 for a, b in edges})


def degrees(g: nx.Graph) -> dict:
    return dict(g.degree())


def cycle_edges(n: int) -> list[tuple[str, str]]:
    return [(str(k), str((k + 1) % n)) for k in range(n)]


def cycle(n: int):
    """The n-cycle over the nodes "0" .. "n-1", as an indexed graph."""
    return indexed(map(str, range(n)), cycle_edges(n))


# ---------------------------------------------------------------------------
# rewiring


def test_rewire_preserves_degrees():
    net = ring_net()
    null = configuration_rewire(net, seed=3)
    assert degrees(null.aggregate_graph()) == degrees(net.aggregate_graph())


def test_rewire_preserves_per_layer_degrees():
    net = make_network(
        {(f"a{i}", f"a{(i + 1) % 8}"): 1 for i in range(8)},
        synonym={(f"a{i}", f"a{(i + 3) % 8}") for i in range(8)},
    )
    null = configuration_rewire(net, seed=5)
    for layer in ("syntactic", "synonym"):
        assert degrees(null.layer_graph(layer)) == degrees(net.layer_graph(layer))


def test_rewire_changes_edges():
    net = ring_net()
    null = configuration_rewire(net, seed=3)
    assert set(null.syntactic_edges) != set(net.syntactic_edges)


def test_rewire_stays_simple():
    null = configuration_rewire(ring_net(), seed=9)
    for a, b in null.syntactic_edges:
        assert a != b
        assert (b, a) not in null.syntactic_edges


def test_rewire_deterministic_per_seed():
    net = ring_net()
    a = configuration_rewire(net, seed=4)
    b = configuration_rewire(net, seed=4)
    c = configuration_rewire(net, seed=5)
    assert a.syntactic_edges == b.syntactic_edges
    assert a.syntactic_edges != c.syntactic_edges


def test_rewire_records_provenance():
    null = configuration_rewire(ring_net(), seed=4)
    assert null.provenance["null_model"]["seed"] == 4
    assert null.provenance["null_model"]["swaps"][0] > 0


def test_unswappable_layer_warns():
    net = make_network({("a", "b"): 1, ("a", "c"): 1})  # shared endpoint: no legal swap
    with pytest.warns(UserWarning, match="no swaps"):
        configuration_rewire(net, seed=1)


STAR_PLUS_EDGE = {("hub", f"l{i:03d}") for i in range(300)} | {("x", "y")}


def test_rewire_shortfall_warns_with_the_swaps_made():
    """A star with one disjoint edge admits some swaps, but not one per edge."""
    with pytest.warns(UserWarning, match=r"fell short: [1-9]\d* swaps of 301 in 30100 attempts"):
        rewire_graph(indexed({s for e in STAR_PLUS_EDGE for s in e}, STAR_PLUS_EDGE), seed=0,
                     swaps_per_edge=1)
    net = make_network(STAR_PLUS_EDGE, synonym={("a", "b"), ("c", "d")})
    with pytest.warns(UserWarning) as record:
        configuration_rewire(net, seed=0, swaps_per_edge=1)
    messages = [str(w.message) for w in record]
    assert len(messages) == 1 and "swaps of 301" in messages[0]


def test_rewire_reaching_its_target_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        configuration_rewire(ring_net(), seed=4)
        rewire_graph(cycle(12), seed=2)


def test_rewire_graph_plain():
    g = cycle(12)
    h = rewire_graph(g, seed=2)
    assert h.stems == g.stems
    assert [len(nbrs) for nbrs in h.nbrs] == [2] * 12
    assert all(u in h.nbrs[v] for u in range(12) for v in h.nbrs[u])
    assert all(list(nbrs) == sorted(nbrs) for nbrs in h.nbrs)
    assert h.nbrs != g.nbrs


def test_null_ensemble_seeds_fan_out():
    nulls = list(null_ensemble(ring_net(), n_realizations=3, seed=10))
    assert [r.provenance["null_model"]["seed"] for r in nulls] == [10, 11, 12]


def test_null_ensemble_needs_two():
    with pytest.raises(ValueError):
        null_ensemble(ring_net(), n_realizations=1, seed=0)


def test_default_swaps_per_edge_exceeds_every_measured_plateau():
    """The default is set from tools/mixing.py: on both bundled graphs, every
    tracked statistic of the stepped swap chain plateaus before it."""
    mixing = load_tool("mixing")
    plateaus = {}
    for name, (adj, stats) in mixing.bundled_graphs().items():
        for stat, per_step in mixing.trajectories(adj, stats).items():
            plateaus[name, stat] = mixing.plateau(per_step)
    assert len(plateaus) * mixing.STEPS == mixing.TESTS
    assert all(p < SWAPS_PER_EDGE for p in plateaus.values()), plateaus
    assert SWAPS_PER_EDGE == min(2 * max(plateaus.values()), 5)


def test_band_is_a_bonferroni_t_bound():
    mixing = load_tool("mixing")
    assert mixing.t_quantile(0.975, 45) == pytest.approx(2.0141, abs=1e-3)
    assert mixing.t_quantile(1 - 1e-4, 45) == pytest.approx(4.0493, abs=2e-3)
    assert mixing.t_quantile(0.995, 20) == pytest.approx(2.8453, abs=2e-3)
    # t at 1 - 0.01 / 100 for 45 degrees of freedom, times sqrt(1 + 1/5)
    assert mixing.BAND == pytest.approx(4.0493 * 1.2**0.5, abs=2e-3)


def test_plateau_is_the_first_step_that_stays_level():
    mixing = load_tool("mixing")
    plateau = mixing.plateau
    level = [1.0, 1.2]  # the seed values of one step: mean 1.1, standard error 0.1
    inside = [v + (mixing.BAND - 1) * 0.1 for v in level]
    outside = [v + (mixing.BAND + 1) * 0.1 for v in level]
    assert plateau([[9.0, 9.2], inside, inside, outside, *[level] * 6]) == 5
    assert plateau([level] * 10) == 1
    assert plateau([level] * 9 + [[5.0, 5.2]]) == 11  # no plateau


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_rewire_degree_property(seed):
    net = ring_net()
    null = configuration_rewire(net, seed=seed)
    assert degrees(null.aggregate_graph()) == degrees(net.aggregate_graph())


@pytest.mark.parametrize("swaps_per_edge", [0, -2])
def test_swaps_per_edge_below_one_rejected(swaps_per_edge):
    with pytest.raises(ValueError, match="swaps_per_edge"):
        configuration_rewire(ring_net(), seed=1, swaps_per_edge=swaps_per_edge)
    with pytest.raises(ValueError, match="swaps_per_edge"):
        rewire_graph(cycle(6), seed=1, swaps_per_edge=swaps_per_edge)


def test_rewire_graph_rejects_self_loop():
    g = indexed(cycle(6).stems, cycle_edges(6), [("0", "0")])
    with pytest.raises(ValueError, match="not simple"):
        rewire_graph(g, seed=1)


def reference_rewire(edges, rng, swaps_per_edge):
    """The string-tuple kernel with rng.randrange draws and a four-way
    shared-end test that the integer kernel replaced; the integer kernel must
    reproduce it exactly. Returns the edge set, the swap count and the edge
    list, position by position."""
    edge_list = sorted(edges)
    m = len(edge_list)
    if m < 2:
        return set(edge_list), 0, edge_list
    edge_set = set(edge_list)
    target = swaps_per_edge * m
    performed = 0
    attempts = 0
    max_attempts = 100 * target
    while performed < target and attempts < max_attempts:
        attempts += 1
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        a, b = edge_list[i]
        c, d = edge_list[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        new1, new2 = _ordered(a, c), _ordered(b, d)
        if new1 in edge_set or new2 in edge_set:
            continue
        edge_set.discard(_ordered(a, b))
        edge_set.discard(_ordered(c, d))
        edge_set.add(new1)
        edge_set.add(new2)
        edge_list[i] = new1
        edge_list[j] = new2
        performed += 1
    return edge_set, performed, edge_list


# simple graphs on up to 9 nodes, from empty and single-edge up to complete
simple_edge_sets = st.sets(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda p: p[0] < p[1]),
    max_size=36,
).map(lambda pairs: {(f"n{a}", f"n{b}") for a, b in pairs})


def complete_edges(k):
    return {(f"n{a}", f"n{b}") for a in range(k) for b in range(a + 1, k)}


# edges that meet end to end, so that an attempt draws a == d or b == c, which
# only the membership test rejects
PATH = {("n0", "n1"), ("n1", "n2"), ("n2", "n3")}
TRIANGLE_WITH_PENDANT = {("n0", "n1"), ("n0", "n2"), ("n1", "n2"), ("n2", "n3")}


def stem_pairs(graph, lo, hi):
    return [(graph.stems[u], graph.stems[v]) for u, v in zip(lo, hi)]


@settings(max_examples=150, deadline=None)
@given(simple_edge_sets, st.integers(0, 2**32), st.integers(1, 3))
@example(set(), 1, 1)
@example({("n0", "n1")}, 2, 1)
@example(complete_edges(5), 3, 2)  # no legal swap: runs until max_attempts
@example(complete_edges(9) - {("n0", "n1"), ("n2", "n3")}, 4, 3)
@example({("n0", f"n{k}") for k in range(1, 9)}, 5, 1)  # star
@example(PATH, 6, 3)
@example(TRIANGLE_WITH_PENDANT, 7, 2)
def test_integer_kernel_matches_reference(edges, seed, swaps_per_edge):
    """The same edge list position by position, the same swap count and the
    same generator state afterwards: the state decides the next layer."""
    rng = random.Random(seed)
    _, expected_swaps, expected_list = reference_rewire(set(edges), rng, swaps_per_edge)
    graph = indexed({s for pair in edges for s in pair}, edges)
    kernel_rng = random.Random(seed)
    lo, hi, performed = stats._rewire_ids(*_edge_lists(graph), len(graph.stems), kernel_rng,
                                          swaps_per_edge)
    assert stem_pairs(graph, lo, hi) == expected_list
    assert performed == expected_swaps
    assert kernel_rng.getstate() == rng.getstate()


@settings(max_examples=100, deadline=None)
@given(simple_edge_sets, simple_edge_sets, st.integers(0, 2**32), st.integers(1, 3))
@example(PATH, TRIANGLE_WITH_PENDANT, 8, 2)
@example(TRIANGLE_WITH_PENDANT, {("n0", "n1")}, 9, 1)
@example(set(), PATH, 10, 3)
def test_two_layers_match_the_reference_on_one_generator(first, second, seed, swaps_per_edge):
    """A realization rewires its layers in turn from one random.Random(seed),
    as the reference does when run twice in sequence on one generator."""
    stems = [f"n{k}" for k in range(9)]
    graphs = [indexed(stems, first), indexed(stems, second)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # shortfalls on small graphs
        [(rewired, swaps)] = stats._realizations(list, [_edge_lists(g) for g in graphs], len(stems),
                                                 [seed], swaps_per_edge)
    rng = random.Random(seed)
    for graph, edges, (lo, hi), performed in zip(graphs, (first, second), rewired, swaps):
        _, expected_swaps, expected_list = reference_rewire(set(edges), rng, swaps_per_edge)
        assert (stem_pairs(graph, lo, hi), performed) == (expected_list, expected_swaps)


@settings(max_examples=30, deadline=None)
@given(simple_edge_sets, st.integers(0, 10), st.integers(0, 2**32))
def test_rewire_graph_matches_reference(edges, isolated, seed):
    nodes = {s for pair in edges for s in pair} | {f"z{k}" for k in range(isolated)}
    h = rewire_graph(indexed(nodes, edges), seed=seed, swaps_per_edge=2)
    expected, _, _ = reference_rewire(set(edges), random.Random(seed), 2)
    assert h.stems == tuple(sorted(nodes))
    assert {(h.stems[u], h.stems[v]) for u, nbrs in enumerate(h.nbrs) for v in nbrs if u < v} == expected


def realization_values(call):
    """The per-seed values that `call` gathers through stats._realizations, in
    seed order, computed in this process."""
    captured = []
    gather = stats._realizations

    def recording(*args):
        results = gather(*args)
        captured.extend(value for value, _ in results)
        return results

    with mock.patch.object(stats, "_realizations", recording), \
            mock.patch("tfmn.workers._usable_cpus", lambda: 1), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # shortfalls on small graphs
        call()
    return captured


def multiplex(n_nodes, syntactic, synonym):
    """A network on the nodes "n0" .. "n{n_nodes - 1}", any of them isolated."""
    stems = [f"n{k}" for k in range(n_nodes)]
    return MultiplexLexicalNetwork(
        nodes={s: Concept("unrated", None, frozenset()) for s in stems},
        syntactic_edges={(stems[a], stems[b]): 1 for a, b in syntactic},
        synonym_edges={(stems[a], stems[b]) for a, b in synonym},
        provenance={},
    )


@st.composite
def multiplex_layers(draw):
    """(n_nodes, syntactic, synonym) id pairs; the synonym layer may repeat a
    syntactic pair, and either layer may hold 0 or 1 edges."""
    n_nodes = draw(st.integers(0, 12))
    pair = st.tuples(st.integers(0, max(n_nodes - 1, 0)), st.integers(0, max(n_nodes - 1, 0)))
    pairs = pair.filter(lambda p: p[0] < p[1])
    syntactic = draw(st.sets(pairs, max_size=24)) if n_nodes > 1 else set()
    synonym = draw(st.sets(pairs, max_size=6)) if n_nodes > 1 else set()
    if syntactic and draw(st.booleans()):
        synonym.add(draw(st.sampled_from(sorted(syntactic))))
    return n_nodes, syntactic, synonym


@settings(max_examples=60, deadline=None)
@given(multiplex_layers(), st.integers(0, 2**32), st.integers(1, 3))
@example((0, set(), set()), 0, 1)
@example((4, set(), set()), 1, 1)
@example((5, {(0, 1)}, {(0, 1)}), 2, 1)
@example((7, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)}, {(0, 2)}), 3, 2)
@example((9, {(a, b) for a in range(6) for b in range(a + 1, 6)} | {(6, 7)}, {(0, 8), (1, 2)}), 4, 1)
def test_clustering_null_values_match_the_stem_reference(layers, seed, swaps_per_edge):
    net = multiplex(*layers)
    values = realization_values(lambda: clustering_null_test(net, 3, seed, swaps_per_edge))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = [mean_clustering(configuration_rewire(net, s, swaps_per_edge))
                    for s in range(seed, seed + 3)]
    assert values == expected


@settings(max_examples=60, deadline=None)
@given(simple_edge_sets, st.integers(0, 2**32), st.integers(1, 3))
@example(set(), 0, 1)
@example({("n2", "n3"), ("n4", "n5")}, 1, 2)  # n0 and n1 stay a component of their own
@example(complete_edges(9), 2, 1)
@example({("n4", "n5"), ("n2", "n7")}, 0, 1)  # every rewire moves n0's edge off the ranked stems
def test_benchmark_null_distances_match_the_stem_reference(edges, seed, swaps_per_edge):
    """n9 is isolated, so unreachable in every realization, and "q" is not in
    the oracle. n0 keeps its neighbour n1 in the oracle, so the empirical
    sample is nonempty, but a rewire may leave no ranked stem reachable; when
    no realization reaches one, the null sample is empty and the report
    raises."""
    oracle = indexed([f"n{k}" for k in range(10)], edges | {("n0", "n1")})
    rankings = {"n0": ["n1", "n3", "q", "n9", "n0", "n5", "n8", "n3"],
                "n6": ["n0", "n7", "n9", "q", "n2"], "absent": ["n1"]}
    errors = []

    def report():
        try:
            benchmark_topic_relevance(rankings, oracle, 3, seed, swaps_per_edge)
        except ValueError as exc:
            errors.append(str(exc))

    values = realization_values(report)
    expected = []
    for s in range(seed, seed + 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rewired = rewire_graph(oracle, s, swaps_per_edge)
        lengths = {topic: {rewired.stems[v]: d for v, d in bfs(rewired.nbrs, rewired.id_of(topic)).items()}
                   for topic in ("n0", "n6")}
        expected.append([float(lengths[t][x]) for t in ("n0", "n6") for x in rankings[t]
                         if x != t and x in lengths[t]])
    assert values == expected
    assert errors == ([] if any(expected) else ["both samples must be nonempty"])


def id_edge_lists(*layers):
    """The (lo, hi) id lists of each set of id pairs, in sorted order, as
    `_edge_lists` gives them."""
    return [([u for u, _ in sorted(pairs)], [v for _, v in sorted(pairs)]) for pairs in layers]


@settings(max_examples=100, deadline=None)
@given(multiplex_layers(), st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=9), max_size=4))
@example((7, {(0, 1), (2, 3), (3, 4), (4, 5)}, {(1, 2), (2, 3)}), [[0, 5, 4, 6, 3, 2, 1, 0, 5], [6, 0]])
@example((7, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)}, {(0, 2)}), [[5, 0, 1, 6, 2], [2, 5]])
@example((0, set(), set()), [[0, 1]])
def test_realization_measures_on_edge_lists_equal_networkx(layers, queries):
    """What a realization measures, from the (lo, hi) edge lists of two
    layers, against networkx on their union: a pair may sit in both layers
    and a node may be isolated or of degree 1. A query's first id is its
    topic; a ranked id may be the topic, repeated, 3 or more hops away or
    out of reach, which is skipped, and the distances keep ranked order."""
    n_nodes, syntactic, synonym = layers
    edge_lists = id_edge_lists(syntactic, synonym)
    g = nx.Graph()
    g.add_nodes_from(range(n_nodes))
    g.add_edges_from(syntactic | synonym)
    later = _edge_forward_sets(n_nodes, *edge_lists)
    assert later == [{v for v in g[u] if v > u} for u in range(n_nodes)]
    assert _mean_clustering(later) == (nx.average_clustering(g) if n_nodes else 0.0)

    queries = [(q[0] % n_nodes, [v % n_nodes for v in q[1:]]) for q in queries] if n_nodes else []
    expected = []
    for topic, ranked in queries:
        lengths = nx.shortest_path_length(g, topic)
        expected.append([lengths[v] for v in ranked if v in lengths])
    assert stats._topic_distances(n_nodes, edge_lists, queries) == expected


# ---------------------------------------------------------------------------
# Mann-Whitney U


def brute_force_u(a, b):
    return sum(1.0 if x > y else (0.5 if x == y else 0.0) for x in a for y in b)


def test_u_known_value():
    # all of a below all of b: U counts every (a, b) pair with a < b
    r = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert r.U == 4.0


def test_u_with_ties():
    a, b = [1.0, 2.0], [2.0, 3.0]
    r = mann_whitney_u(a, b)
    assert r.U == len(a) * len(b) - brute_force_u(a, b)


def test_medians_reported():
    r = mann_whitney_u([1.0, 2.0, 9.0], [4.0, 5.0])
    assert r.median1 == 2.0
    assert r.median2 == 4.5


def test_identical_samples_p_one():
    r = mann_whitney_u([1.0] * 10, [1.0] * 10)
    assert r.p_value == 1.0


def test_separated_samples_small_p():
    a = [float(i) for i in range(30)]
    b = [float(i + 100) for i in range(30)]
    r = mann_whitney_u(a, b)
    assert r.p_value < 1e-6


def test_p_symmetric_in_sample_order():
    a = [1.0, 2.0, 5.0, 7.0]
    b = [3.0, 4.0, 6.0, 8.0, 9.0]
    assert mann_whitney_u(a, b).p_value == pytest.approx(mann_whitney_u(b, a).p_value)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 6).map(float), min_size=1, max_size=8),
    st.lists(st.integers(0, 6).map(float), min_size=1, max_size=8),
)
def test_u_matches_pair_counting(a, b):
    r = mann_whitney_u(a, b)
    # U1 + U2 = n1*n2 with U computed for the first sample as n1*n2 - #(a beats b)
    assert r.U == pytest.approx(len(a) * len(b) - brute_force_u(a, b))
    assert 0.0 < r.p_value <= 1.0


def reference_p_value(a, b):
    """The two-sided tie-corrected p-value, step for step as mann_whitney_u
    computes it, with the standard normal CDF written as an erf."""
    n1, n2 = len(a), len(b)
    n = n1 + n2
    tie_term = sum(t**3 - t for t in Counter(a + b).values())
    sigma_sq = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0:
        return 1.0
    diff = (n1 * n2 - brute_force_u(a, b)) - n1 * n2 / 2
    correction = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
    z = (diff - correction) / math.sqrt(sigma_sq)
    p = 2 * (1 - 0.5 * (1 + math.erf(abs(z) / math.sqrt(2))))
    return min(max(p, 1e-300), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 40).map(float), min_size=1, max_size=40),
    st.lists(st.integers(0, 40).map(float), min_size=1, max_size=40),
)
@example([float(i) for i in range(30)], [float(i + 100) for i in range(30)])
def test_p_value_matches_the_erf_reference(a, b):
    assert mann_whitney_u(a, b).p_value == reference_p_value(a, b)


# ---------------------------------------------------------------------------
# free associations and benchmark


def test_load_free_associations(tmp_path):
    path = tmp_path / "fa.tsv"
    path.write_text("cats\tdogs\nrunning\trun\n", encoding="utf-8")
    # running and run share a stem: self-loop dropped
    assert load_free_associations(path) == (("cat", "dog"), ((1,), (0,)))


def test_free_association_bad_row(tmp_path):
    path = tmp_path / "fa.tsv"
    path.write_text("one\ttwo\tthree\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_free_associations(path)


def test_free_association_bad_row_names_line_and_field_count(tmp_path):
    path = tmp_path / "fa.tsv"
    path.write_text("cats\tdogs\n\none\ttwo\tthree\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r"fa.tsv: line 3: expected 2 fields, got 3$"):
        load_free_associations(path)


def test_bundled_oracle_graph_is_its_stem_pairs_without_self_pairs():
    path = DATA / "benchmark" / "free_associations.tsv"
    edges = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            a, b = (stem(w.strip().lower()) for w in line.split("\t"))
            if a != b:
                edges.append((a, b))
    stems = sorted({s for e in edges for s in e})
    expected = {s: {b for a, b in edges if a == s} | {a for a, b in edges if b == s} for s in stems}
    graph = load_free_associations(path)
    assert graph.stems == tuple(stems)
    assert {graph.stems[u]: {graph.stems[v] for v in nbrs} for u, nbrs in enumerate(graph.nbrs)} == expected


def make_oracle(tmp_path):
    rng = random.Random(0)
    letters = "bcdfghjklmnpqrstvwxz"
    words = [f"w{a}{b}" for a in letters[:6] for b in letters[:4]]
    lines = []
    for i, a in enumerate(words):
        lines.append(f"{a}\t{words[(i + 1) % len(words)]}")
    for _ in range(30):
        a, b = rng.sample(words, 2)
        lines.append(f"{a}\t{b}")
    path = tmp_path / "oracle.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_free_associations(path)


def test_benchmark_report_shape(tmp_path):
    oracle = make_oracle(tmp_path)
    rankings = {"wbb": ["wbc", "wbd", "wbf"], "wdd": ["wdf", "wfb"]}
    report = benchmark_topic_relevance(rankings, oracle, n_realizations=5, seed=1)
    assert report["randomization_target"] == "free-association oracle network"
    assert report["topics"] == ["wbb", "wdd"]
    assert report["n_realizations"] == 5
    assert set(report["per_topic"]) == {"wbb", "wdd"}
    assert 0.0 < report["mann_whitney"]["p_value"] <= 1.0


def test_benchmark_deterministic(tmp_path):
    oracle = make_oracle(tmp_path)
    rankings = {"wbb": ["wbc", "wbd", "wbf"]}
    a = benchmark_topic_relevance(rankings, oracle, n_realizations=5, seed=1)
    b = benchmark_topic_relevance(rankings, oracle, n_realizations=5, seed=1)
    assert a == b


def test_benchmark_skips_absent_topic(tmp_path):
    oracle = make_oracle(tmp_path)
    rankings = {"wbb": ["wbc"], "zzz": ["wbd"]}
    with pytest.warns(UserWarning, match="absent"):
        report = benchmark_topic_relevance(rankings, oracle, n_realizations=3, seed=1)
    assert report["skipped_topics"] == ["zzz"]


def test_benchmark_all_topics_absent_is_error(tmp_path):
    oracle = make_oracle(tmp_path)
    with pytest.raises(ValueError, match="no ranking topic"):
        benchmark_topic_relevance({"zzz": ["wbc"]}, oracle, n_realizations=3, seed=1)


def test_benchmark_counts_absent_stems(tmp_path):
    oracle = make_oracle(tmp_path)
    report = benchmark_topic_relevance(
        {"wbb": ["wbc", "qqq"]}, oracle, n_realizations=3, seed=1
    )
    assert report["absent_ranked_stems"] == 1


# ---------------------------------------------------------------------------
# clustering null test


def test_clustering_null_test_detects_triangles():
    # dense overlapping triangles: clustering far above the rewired ensemble
    edges = {}
    for g0 in range(4):
        group = [f"g{g0}{i}" for i in range(5)]
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                edges[(u, v)] = 1
    for g0 in range(4):
        edges[(f"g{g0}0", f"g{(g0 + 1) % 4}0")] = 1
    net = make_network({(min(a, b), max(a, b)): 1 for a, b in edges})
    report = clustering_null_test(net, n_realizations=20, seed=0)
    assert report["empirical_clustering"] > report["ensemble_mean"]
    assert report["z_score"] > 3.0
    assert len(report["seeds"]) == 20


@pytest.mark.parametrize("n_realizations", [0, 1])
def test_clustering_null_test_needs_two(n_realizations):
    with pytest.raises(ValueError, match="need at least 2 realizations"):
        clustering_null_test(ring_net(), n_realizations=n_realizations, seed=0)


# ---------------------------------------------------------------------------
# realizations in worker processes


@pytest.mark.parametrize("n_realizations", [2, 3, 5])
def test_reports_do_not_depend_on_the_worker_count(tmp_path, workers, n_realizations):
    oracle = make_oracle(tmp_path)
    rankings = {"wbb": ["wbc", "wbd", "wbf"], "wdd": ["wdf", "wfb"]}
    reports = []
    for k in (1, 2, 3):
        workers(k)
        reports.append((clustering_null_test(ring_net(), n_realizations, seed=4),
                        benchmark_topic_relevance(rankings, oracle, n_realizations, seed=1)))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
    assert_no_child_left()


def test_stage_items_do_not_depend_on_the_worker_count(tmp_path, workers, stage_items):
    """rewire counts realizations x layers, clustering and topic_distances the
    graphs measured and the topic queries answered, the empirical ones included."""
    oracle = make_oracle(tmp_path)
    rankings = {"wbb": ["wbc", "wbd", "wbf"], "wdd": ["wdf", "wfb"]}
    records = []
    for k in (1, 2, 3):
        workers(k)
        clustering_null_test(ring_net(), n_realizations=5, seed=4)
        null = stage_items()
        report = benchmark_topic_relevance(rankings, oracle, n_realizations=5, seed=1)
        records.append((null, stage_items()))
    assert records[1] == records[0] and records[2] == records[0]
    u_test = report["mann_whitney"]
    assert records[0] == ({"clustering": 1 + 5, "rewire": 5 * 2},
                          {"topic_distances": 2 * (1 + 5), "rewire": 5 * 1,
                           "u_test": u_test["n1"] + u_test["n2"]})
    assert_no_child_left()


def test_worker_warnings_reach_the_caller_once_per_realization_in_seed_order(workers):
    net = make_network(STAR_PLUS_EDGE, synonym={("a", "b"), ("c", "d")})
    expected = []
    for s in range(3, 8):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            configuration_rewire(net, s, swaps_per_edge=1)
        expected += [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    assert len(expected) == 5 and expected[0][2] == stats.__file__
    for k in (1, 2):
        workers(k)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clustering_null_test(net, n_realizations=5, seed=3, swaps_per_edge=1)
        assert [(str(w.message), w.category, w.filename, w.lineno) for w in caught] == expected


def test_benchmark_worker_warnings_match_rewire_graph_seed_by_seed(workers):
    oracle = indexed({s for e in STAR_PLUS_EDGE for s in e}, STAR_PLUS_EDGE)
    expected = []
    for s in range(3, 8):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rewire_graph(oracle, s, swaps_per_edge=1)
        expected += [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    assert len(expected) == 5 and expected[0][2] == stats.__file__
    for k in (1, 2):
        workers(k)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            benchmark_topic_relevance({"hub": ["l000", "x"]}, oracle, n_realizations=5, seed=3,
                                      swaps_per_edge=1)
        assert [(str(w.message), w.category, w.filename, w.lineno) for w in caught] == expected


def test_cli_warnings_from_workers_match_the_one_process_run(tmp_path):
    """Under the default warning filters, nulltest's stderr is the same for 1
    and 2 workers: each distinct shortfall message once, in seed order. Two of
    the 8 realizations fall short by the same count, so their warning shows
    once."""
    save_network(make_network(STAR_PLUS_EDGE, synonym={("a", "b"), ("c", "d")}), tmp_path / "net.json")
    entry = ("import sys, tfmn.workers; k = int(sys.argv.pop(1)); tfmn.workers._usable_cpus = lambda: k\n"
             "from tfmn.cli import main; sys.argv[0] = 'tfmn'; main()")
    env = {**os.environ, "PYTHONPATH": str(Path(stats.__file__).resolve().parents[1])}
    stderr = []
    for k in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", entry, k, "nulltest", "--network", "net.json",
                               "--realizations", "8", "--seed", "0", "--swaps-per-edge", "1"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        stderr.append(proc.stderr)
    assert stderr[0].count("UserWarning: rewiring fell short") == 7
    assert stderr[1] == stderr[0]


@pytest.mark.parametrize("bad_seed", [0, 4], ids=["own chunk", "worker chunk"])
@pytest.mark.parametrize("function", ["configuration_rewire", "rewire_graph"])
def test_worker_error_reaches_the_caller_and_no_child_is_left(tmp_path, monkeypatch, workers,
                                                            bad_seed, function):
    """function names the public rewire whose realizations the ensemble runs
    on ids; the kernel fails in the realization of bad_seed."""
    monkeypatch.setattr(stats, "_rewire_ids", failing_kernel(bad_seed))
    workers(2)
    with pytest.raises(ValueError, match=f"^bad seed {bad_seed}$"):
        if function == "configuration_rewire":
            clustering_null_test(ring_net(), n_realizations=5, seed=0)
        else:
            benchmark_topic_relevance({"wbb": ["wbc"]}, make_oracle(tmp_path), 5, seed=0)
    assert_no_child_left()
