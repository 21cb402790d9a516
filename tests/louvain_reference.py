"""One level of Louvain local moving written as networkx 3.x's `_one_level`
runs it: every sweep evaluates every node, in one shuffled order. Tests compare
`tfmn.analysis._one_level`, which skips the nodes whose inputs did not change,
against `reference_one_level`."""

from __future__ import annotations

from collections import defaultdict

from tfmn.analysis import _degree


def reference_one_level(adj, m, rng):
    """Move each node, in one shuffled order, to the neighbour community of
    largest positive gain until no move helps; returns the non-empty
    communities of this level's nodes and whether any node moved."""
    node2com = list(range(len(adj)))
    inner = [{u} for u in range(len(adj))]
    degrees = list(map(_degree, adj, range(len(adj))))
    stot = list(degrees)
    nbrs = [{v: w for v, w in a.items() if v != u} for u, a in enumerate(adj)]
    two_m2 = 2 * m**2
    order = list(range(len(adj)))
    rng.shuffle(order)
    moves = 1
    improvement = False
    while moves > 0:
        moves = 0
        for u in order:
            best_mod = 0
            best_com = node2com[u]
            weights2com: defaultdict[int, float] = defaultdict(float)
            for v, w in nbrs[u].items():
                weights2com[node2com[v]] += w
            degree = degrees[u]
            stot[best_com] -= degree
            remove_cost = -weights2com[best_com] / m + (stot[best_com] * degree) / two_m2
            for com, w in weights2com.items():
                gain = remove_cost + w / m - (stot[com] * degree) / two_m2
                if gain > best_mod:
                    best_mod = gain
                    best_com = com
            stot[best_com] += degree
            if best_com != node2com[u]:
                inner[node2com[u]].remove(u)
                inner[best_com].add(u)
                improvement = True
                moves += 1
                node2com[u] = best_com
    return [c for c in inner if c], improvement
