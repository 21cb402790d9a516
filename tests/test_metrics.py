import itertools
import random
from time import perf_counter
from unittest import mock

import networkx as nx
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from tfmn import metrics
from tfmn.build import Concept, MultiplexLexicalNetwork, save_network
from tfmn.cli import main
from tfmn.metrics import (
    LAYER_MODES,
    _edge_forward_sets,
    _layer_edge_lists,
    _mean_clustering,
    bfs,
    centrality_report,
    closeness,
    closeness_rows,
    mean_clustering,
    rank_concepts,
    shortest_paths,
)

from conftest import make_network


def path_net():
    return make_network({("a", "b"): 1, ("b", "c"): 1})


def star_net():
    return make_network({("hub", "x"): 1, ("hub", "y"): 1, ("hub", "z"): 1})


# ---------------------------------------------------------------------------
# distances


def test_distances_on_path():
    dm = shortest_paths(path_net())
    assert dm.distance("a", "c") == 2
    assert dm.distance("a", "a") == 0
    assert dm.distance("c", "a") == 2


def test_cross_component_distance_absent():
    dm = shortest_paths(make_network({("a", "b"): 1, ("c", "d"): 1}))
    assert dm.distance("a", "c") is None
    assert dm.component_id["a"] != dm.component_id["c"]


def test_component_ids_ordered_by_size_then_name():
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("x", "y"): 1})
    dm = shortest_paths(net)
    assert dm.component_id["a"] == 0
    assert dm.component_id["x"] == 1


def test_synonym_edges_count_in_aggregate_distances():
    net = make_network({("a", "b"): 1}, synonym={("b", "c")})
    assert shortest_paths(net).distance("a", "c") == 2
    assert shortest_paths(net, "syntactic_only").distance("a", "c") is None


# ---------------------------------------------------------------------------
# closeness, hand-computed values


def test_closeness_path_center():
    # 3-node path: centre sums distances 0+1+1
    assert closeness(path_net(), "b") == pytest.approx(3 / 2)


def test_closeness_path_end():
    assert closeness(path_net(), "a") == pytest.approx(3 / 3)


def test_closeness_star():
    net = star_net()
    assert closeness(net, "hub") == pytest.approx(4 / 3)
    assert closeness(net, "x") == pytest.approx(4 / 5)


def test_closeness_triangle_uniform():
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
    for n in "abc":
        assert closeness(net, n) == pytest.approx(3 / 2)


def test_closeness_restricted_to_component():
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("x", "y"): 1})
    # x's component has size 2, distances 0+1
    assert closeness(net, "x") == pytest.approx(2 / 1)


def test_closeness_unknown_node():
    with pytest.raises(KeyError):
        closeness(path_net(), "zzz")


def test_closeness_layer_mode():
    net = make_network({("a", "b"): 1}, synonym={("b", "c")})
    assert closeness(net, "b") == pytest.approx(3 / 2)
    assert closeness(net, "b", "syntactic_only") == pytest.approx(2 / 1)
    with pytest.raises(ValueError):
        closeness(net, "b", "bogus")


# ---------------------------------------------------------------------------
# ranking


def test_rank_orders_by_closeness():
    ranked = rank_concepts(star_net(), top_k=4)
    assert ranked[0][0] == "hub"
    assert ranked[0][1] == pytest.approx(4 / 3)


def test_rank_ties_lexicographic():
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 1})
    ranked = rank_concepts(net, top_k=4)
    assert [s for s, _ in ranked] == ["a", "b", "c", "d"]


def test_rank_uses_largest_component_only():
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("x", "y"): 1})
    ranked = rank_concepts(net, top_k=10)
    assert {s for s, _ in ranked} == {"a", "b", "c"}


def test_rank_top_k_truncates():
    assert len(rank_concepts(star_net(), top_k=2)) == 2


def test_rank_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        rank_concepts(star_net(), top_k=0)


def test_centrality_report_rows():
    rows = centrality_report(star_net())
    assert rows[0] == ("hub", pytest.approx(4 / 3), 3, 4)
    assert [r[0] for r in rows[1:]] == ["x", "y", "z"]


def test_centrality_report_csv(tmp_path):
    """`export --format csv` writes the report under its header row."""
    path = tmp_path / "r.csv"
    save_network(star_net(), tmp_path / "star.json")
    result = CliRunner().invoke(main, ["export", "--network", str(tmp_path / "star.json"),
                                       "--format", "csv", "--out", str(path)])
    assert result.exit_code == 0, result.output
    lines = path.read_text().splitlines()
    assert lines[0] == "stem,closeness,degree,component_size"
    assert lines[1].startswith("hub,")


# ---------------------------------------------------------------------------
# clustering


def test_clustering_triangle():
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
    assert mean_clustering(net) == pytest.approx(1.0)


def test_clustering_star_is_zero():
    assert mean_clustering(star_net()) == 0.0


def test_clustering_triangle_with_pendant():
    # a-b-c triangle plus pendant d on a: C = (1/3 + 1 + 1 + 0) / 4
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1, ("a", "d"): 1})
    assert mean_clustering(net) == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)


def brute_force_mean_clustering(g: nx.Graph) -> float:
    total = 0.0
    for node in g:
        nbrs = list(g.neighbors(node))
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(1 for u, v in itertools.combinations(nbrs, 2) if g.has_edge(u, v))
        total += 2 * links / (k * (k - 1))
    return total / g.number_of_nodes() if g.number_of_nodes() else 0.0


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]), min_size=1, max_size=15))
def test_clustering_matches_brute_force(pairs):
    edges = {(f"n{min(a, b)}", f"n{max(a, b)}"): 1 for a, b in pairs}
    net = make_network(edges)
    assert mean_clustering(net) == pytest.approx(
        brute_force_mean_clustering(net.aggregate_graph())
    )


node_pairs = st.sets(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]), max_size=30
)


@settings(max_examples=100, deadline=None)
@given(node_pairs, node_pairs, st.integers(0, 4))
def test_clustering_equals_networkx_exactly(syntactic, synonym, isolated):
    # two layers that may share pairs, plus isolated nodes
    net = make_network({(f"n{a}", f"n{b}"): 1 for a, b in syntactic},
                       synonym={(f"n{a}", f"n{b}") for a, b in synonym})
    for k in range(isolated):
        net.nodes[f"z{k}"] = Concept("unrated", None, frozenset())
    g = nx.Graph()
    g.add_nodes_from(sorted(net.nodes))
    g.add_edges_from(sorted(set(net.syntactic_edges) | net.synonym_edges))
    expected = sum(nx.clustering(g).values()) / g.number_of_nodes() if g.number_of_nodes() else 0.0
    assert mean_clustering(net) == expected


@settings(max_examples=100, deadline=None)
@given(node_pairs, node_pairs, st.integers(0, 4))
@example({(0, 1), (1, 2), (0, 2), (2, 3)}, {(0, 2), (4, 5)}, 1)
@example(set(), set(), 0)
def test_forward_set_clustering_equals_networkx_average_clustering(syntactic, synonym, isolated):
    """The forward sets hold each edge once, at its lower id, and the mean
    clustering read from them is networkx's average_clustering exactly: the
    examples give a triangle with a degree-1 node, a pair in both layers, a
    lone edge and an isolated node."""
    net = make_network({(f"n{a}", f"n{b}"): 1 for a, b in syntactic},
                       synonym={(f"n{a}", f"n{b}") for a, b in synonym})
    for k in range(isolated):
        net.nodes[f"z{k}"] = Concept("unrated", None, frozenset())
    later = _edge_forward_sets(len(net.nodes), *_layer_edge_lists(net))
    assert later == [{v for v in nb if v > u} for u, nb in enumerate(net.indexed().nbrs)]
    g = net.aggregate_graph()
    assert _mean_clustering(later) == (nx.average_clustering(g) if len(g) else 0.0)


@settings(max_examples=100, deadline=None)
@given(node_pairs, node_pairs, st.integers(0, 4), st.sampled_from(LAYER_MODES))
def test_bfs_queries_equal_networkx(syntactic, synonym, isolated, layer_mode):
    net = make_network({(f"n{a}", f"n{b}"): 1 for a, b in syntactic},
                       synonym={(f"n{a}", f"n{b}") for a, b in synonym})
    for k in range(isolated):
        net.nodes[f"z{k}"] = Concept("unrated", None, frozenset())
    view = layer_mode.removesuffix("_only")
    g = net.aggregate_graph() if view == "aggregate" else net.layer_graph(view)
    lengths = {s: nx.single_source_shortest_path_length(g, s) for s in g}
    components = sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
    component_id = {s: cid for cid, comp in enumerate(components) for s in comp}
    expected = {s: len(d) / sum(d.values()) if len(d) > 1 else None for s, d in lengths.items()}

    stems, nbrs = net.indexed(view)
    assert {stems[u]: {stems[v]: d for v, d in bfs(nbrs, u).items()} for u in range(len(stems))} == lengths
    dm = shortest_paths(net, layer_mode)
    assert dm.distances == lengths and dm.component_id == component_id
    assert {s: closeness(net, s, layer_mode) for s in net.nodes} == expected
    rows = [(s, c, g.degree(s), len(components[component_id[s]]))
            for s, c in expected.items() if c is not None]
    assert centrality_report(net, layer_mode) == sorted(rows, key=lambda r: (-r[1], r[0]))


# ---------------------------------------------------------------------------
# the bit-parallel closeness table against one BFS per node


def per_node_rows(net, layer_mode):
    """(stem, closeness, degree, component size) of every non-isolated node,
    from one bfs per node."""
    stems, nbrs = net.indexed(layer_mode.removesuffix("_only"))
    rows = {}
    for u, s in enumerate(stems):
        dist = bfs(nbrs, u)
        if len(dist) > 1:
            rows[s] = (s, len(dist) / sum(dist.values()), len(nbrs[u]), len(dist))
    return rows


@settings(max_examples=100, deadline=None)
@given(node_pairs, node_pairs, st.integers(0, 4), st.sampled_from(LAYER_MODES),
       st.sampled_from([1, 2, 3]))
def test_closeness_table_equals_per_node_bfs_for_any_block(syntactic, synonym, isolated,
                                                          layer_mode, block):
    net = make_network({(f"n{a}", f"n{b}"): 1 for a, b in syntactic},
                       synonym={(f"n{a}", f"n{b}") for a, b in synonym})
    for k in range(isolated):
        net.nodes[f"z{k}"] = Concept("unrated", None, frozenset())
    with mock.patch.object(metrics, "_BLOCK_BITS", block):
        table = closeness_rows(net, layer_mode)
    expected = per_node_rows(net, layer_mode)
    assert {row[0]: row for comp in table for row in comp} == expected
    for comp in table:
        assert comp == sorted(comp, key=lambda r: (-r[1], r[0]))
        assert len({row[3] for row in comp}) <= 1
    sizes = [comp[0][3] if comp else 1 for comp in table]
    assert sizes == sorted(sizes, reverse=True)
    assert sum(sizes) == len(net.nodes)


def seeded_large_network(nodes: int, seed: int) -> MultiplexLexicalNetwork:
    """A random recursive tree on 98% of the nodes, one extra syntactic and
    one synonym edge per 2.5 nodes, and the rest in pairs or alone."""
    rng = random.Random(seed)
    names = [f"c{i:05d}" for i in range(nodes)]
    core = nodes - nodes // 50
    syntactic = {(names[rng.randrange(i)], names[i]) for i in range(1, core)}
    while len(syntactic) < 1.4 * core:
        a, b = sorted(rng.sample(range(core), 2))
        syntactic.add((names[a], names[b]))
    syntactic.update((names[i], names[i + 1]) for i in range(core, nodes - 1, 3))
    synonym = set()
    while len(synonym) < nodes // 5:
        a, b = sorted(rng.sample(range(core), 2))
        synonym.add((names[a], names[b]))
    net = MultiplexLexicalNetwork(
        nodes={s: Concept("unrated", None, frozenset()) for s in names},
        syntactic_edges=dict.fromkeys(syntactic, 1),
        synonym_edges=synonym,
        provenance={},
    )
    net.validate()
    return net


def test_closeness_table_on_5k_nodes_matches_sampled_bfs():
    net = seeded_large_network(5000, seed=11)
    start = perf_counter()
    table = closeness_rows(net)
    elapsed = perf_counter() - start
    assert table[0][0][3] > metrics._BLOCK_BITS  # the largest component takes two blocks
    rows = {row[0]: row for comp in table for row in comp}
    graph = net.indexed()
    for s in random.Random(5).sample(sorted(rows), 50):
        u = graph.id_of(s)
        dist = bfs(graph.nbrs, u)
        assert rows[s] == (s, len(dist) / sum(dist.values()), len(graph.nbrs[u]), len(dist))
    assert elapsed < 2.0, f"closeness_rows took {elapsed:.2f} s on 5,000 nodes"


# ---------------------------------------------------------------------------
# layer modes


def test_layer_modes_constant():
    assert LAYER_MODES == ("aggregate", "syntactic_only", "synonym_only")
