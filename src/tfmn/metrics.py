"""Graph measurements on the multiplex network.

Distances treat a link in either layer as length 1. Closeness of a node
is component size divided by the sum of within-component shortest-path
distances (self-distance zero included), so values are only comparable
within a component.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stage
from .build import Indexed, MultiplexLexicalNetwork

__all__ = [
    "DistanceMatrix",
    "shortest_paths",
    "bfs",
    "closeness",
    "closeness_rows",
    "top_rows",
    "rank_concepts",
    "mean_clustering",
]

LAYER_MODES = ("aggregate", "syntactic_only", "synonym_only")
Row = tuple[str, float, int, int]  # (stem, closeness, degree, component size)
_BLOCK_BITS = 4096  # BFS sources per pass of _distance_sums


def _view(layer_mode: str) -> str:
    if layer_mode in LAYER_MODES:
        return layer_mode.removesuffix("_only")
    raise ValueError(f"unknown layer_mode {layer_mode!r}; expected one of {LAYER_MODES}")


@dataclass(frozen=True)
class DistanceMatrix:
    component_id: dict[str, int]
    distances: dict[str, dict[str, int]]  # source -> {target: d}; absent = unreachable

    def distance(self, a: str, b: str) -> int | None:
        return self.distances.get(a, {}).get(b)


def bfs(nbrs, source: int) -> dict[int, int]:
    """Breadth-first distances from the id source to the id of every node it
    reaches, given id-indexed neighbour lists such as an `Indexed`'s nbrs."""
    dist = {source: 0}
    queue = [source]
    for u in queue:  # also reads the nodes appended while it runs
        for v in nbrs[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _components(nbrs) -> list[list[int]]:
    """Components of id-indexed neighbour lists as sorted ids, largest first, ties by smallest id."""
    comps, seen = [], set()
    for u in range(len(nbrs)):
        if u not in seen:
            comps.append(sorted(bfs(nbrs, u)))
            seen.update(comps[-1])
    return sorted(comps, key=lambda c: (-len(c), c[0]))


def shortest_paths(
    net: MultiplexLexicalNetwork, layer_mode: str = "aggregate"
) -> DistanceMatrix:
    """Breadth-first distances within each connected component of the chosen
    layer view; cross-component pairs are simply absent."""
    stems, nbrs = net.indexed(_view(layer_mode))
    component_id = {stems[u]: cid for cid, comp in enumerate(_components(nbrs)) for u in comp}
    distances = {s: {stems[v]: d for v, d in bfs(nbrs, u).items()} for u, s in enumerate(stems)}
    return DistanceMatrix(component_id=component_id, distances=distances)


def closeness(net: MultiplexLexicalNetwork, node: str, layer_mode: str = "aggregate") -> float | None:
    """Closeness of one node: N / sum of distances over its component
    (N = component size). None for isolated nodes."""
    graph = net.indexed(_view(layer_mode))
    lengths = bfs(graph.nbrs, graph.id_of(node))
    return len(lengths) / sum(lengths.values()) if len(lengths) > 1 else None


def closeness_rows(net: MultiplexLexicalNetwork, layer_mode: str = "aggregate") -> list[list[Row]]:
    """Closeness rows of a layer view, one list per connected component:
    components largest first (ties: smallest stem), rows by closeness,
    descending, then stem; a single-node component has none. Distance sums
    come from one bit-parallel BFS per component (`_distance_sums`)."""
    with stage("closeness", len(net.nodes)):
        stems, nbrs = net.indexed(_view(layer_mode))
        out = []
        for comp in _components(nbrs):
            local = {u: i for i, u in enumerate(comp)}
            sums = _distance_sums([[local[v] for v in nbrs[u]] for u in comp])
            n = len(comp)
            rows = [(stems[u], n / d, len(nbrs[u]), n) for u, d in zip(comp, sums) if d]
            out.append(sorted(rows, key=lambda r: (-r[1], r[0])))
    return out


def _distance_sums(nbrs: list[list[int]]) -> list[int]:
    """Sum of shortest-path distances from each node of a connected graph
    (integer ids, neighbour lists) to all others: a multi-source BFS in which
    node v's bitset holds the sources that have reached it (Then et al.,
    VLDB 2014). Sources run in blocks of _BLOCK_BITS, so memory stays
    O(N * block). A source first reaching v at level d adds d to v's sum,
    which is v's own distance sum because distances are symmetric."""
    n = len(nbrs)
    sums = [0] * n
    for lo in range(0, n, _BLOCK_BITS):
        frontier = {i: 1 << (i - lo) for i in range(lo, min(lo + _BLOCK_BITS, n))}
        seen = [frontier.get(i, 0) for i in range(n)]
        d = 0
        while frontier:
            d += 1
            reached: dict[int, int] = {}
            for u, bits in frontier.items():
                for v in nbrs[u]:
                    reached[v] = reached.get(v, 0) | bits
            frontier = {}
            for v, bits in reached.items():
                bits &= ~seen[v]
                if bits:
                    seen[v] |= bits
                    frontier[v] = bits
                    sums[v] += d * bits.bit_count()
    return sums


def top_rows(net: MultiplexLexicalNetwork, top_k: int, layer_mode: str = "aggregate") -> list[Row]:
    """The first top_k closeness rows of the largest connected component."""
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    components = closeness_rows(net, layer_mode)
    if not components:
        raise ValueError("empty network")
    return components[0][:top_k]


def rank_concepts(
    net: MultiplexLexicalNetwork, top_k: int, layer_mode: str = "aggregate"
) -> list[tuple[str, float]]:
    """Top-k stems of the largest connected component by closeness,
    descending, ties broken lexicographically."""
    return [(s, c) for s, c, _, _ in top_rows(net, top_k, layer_mode)]


def centrality_report(net: MultiplexLexicalNetwork, layer_mode: str = "aggregate") -> list[Row]:
    """Rows of every component, ordered by closeness alone; values from
    different components are not comparable."""
    rows = [row for comp in closeness_rows(net, layer_mode) for row in comp]
    return sorted(rows, key=lambda r: (-r[1], r[0]))


def mean_clustering(net: MultiplexLexicalNetwork) -> float:
    """Mean local clustering on the aggregate simple graph, equal to
    networkx's bit for bit (`_mean_clustering` on the sorted-stem ids)."""
    return _mean_clustering(_edge_forward_sets(len(net.nodes), *_layer_edge_lists(net)))


def _layer_edge_lists(net: MultiplexLexicalNetwork) -> list[tuple[list[int], list[int]]]:
    """The `_edge_lists` of the syntactic layer, then of the synonym layer,
    the order in which a configuration-model realization rewires them."""
    return [_edge_lists(net.indexed("syntactic")), _edge_lists(net.indexed("synonym"))]


def _edge_lists(graph: Indexed) -> tuple[list[int], list[int]]:
    """The (lo, hi) id lists of a simple graph's edges, in sorted order."""
    # u <= v keeps a self-loop; the (lo, hi) pairs come out sorted
    pairs = [(u, v) for u, nbrs in enumerate(graph.nbrs) for v in nbrs if u <= v]
    if any(u == v for u, v in pairs):
        raise ValueError("graph is not simple: self-loop")
    return [u for u, _ in pairs], [v for _, v in pairs]


def _edge_forward_sets(n: int, *edge_lists: tuple[list[int], list[int]]) -> list[set[int]]:
    """later[u], the ids v > u joined to u by an edge of the (lo, hi) edge
    lists; a pair in two of them is held once."""
    later: list[set[int]] = [set() for _ in range(n)]
    for lo, hi in edge_lists:
        for u, v in zip(lo, hi):
            later[u].add(v)
    return later


def _mean_clustering(later: list[set[int]]) -> float:
    """Mean local clustering of a simple graph given by its forward sets:
    later[u] holds the ids v > u joined to u. Each triangle u < v < w is
    found once, from its edge (u, v), as a w in later[u] & later[v], and each
    node's degree is counted on the way. Local values are 2T / (d * (d - 1)),
    with T the node's triangles, and 0 for a node in none, summed in id
    order. On sorted-stem ids that is the order in which `nx.clustering`
    gives them, and 2T is the integer networkx divides, so the mean equals
    networkx's bit for bit."""
    with stage("clustering", 1):
        n = len(later)
        degree = [0] * n
        triangles = [0] * n
        for u, forward in enumerate(later):
            degree[u] += len(forward)
            for v in forward:
                degree[v] += 1
                common = forward & later[v]
                if common:
                    triangles[u] += len(common)
                    triangles[v] += len(common)
                    for w in common:
                        triangles[w] += 1
        local = [0 if t == 0 else 2 * t / (d * (d - 1)) for t, d in zip(triangles, degree)]
        return sum(local) / n if n else 0.0
