"""Time `closeness_rows` and `louvain_partition` on a seeded ~5k-node
two-layer graph, and check them against one breadth-first search per node
and against networkx's Louvain.

Stdlib only; the Louvain check also needs networkx. Run from the repository
root:

    python3 tools/closeness_scale.py [--nodes 5000] [--seed 0]

The graph: a Barabasi-Albert syntactic layer (m=4) on 98% of the nodes,
the other 2% in syntactic pairs and triangles (small components), and a
synonym layer of nodes/2.5 random pairs (2,000 at 5k nodes), so
`synonym_only` has thousands of tiny components. For each layer mode
the script prints the component count, the `closeness_rows` time (best
of three, each on a freshly built network, so that the time includes
building the view's index, as in one `tfmn rank`), the time
of the per-node reference and the number of rows that differ from it
(`==` on stem, float, degree and component size, in order). Then it
prints the `louvain_partition` time at seed 0, as `tfmn communities` runs
by default (best of three, on one network), the number of communities and,
when networkx is installed, whether the partition equals that of networkx's
`louvain_communities` on the aggregate graph with the same seed ("n/a"
without networkx).
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tfmn.analysis import louvain_partition  # noqa: E402
from tfmn.build import Concept, MultiplexLexicalNetwork  # noqa: E402
from tfmn.metrics import LAYER_MODES, bfs, closeness_rows  # noqa: E402


LOUVAIN_SEED = 0


def scale_network(nodes: int, seed: int) -> MultiplexLexicalNetwork:
    rng = random.Random(seed)
    names = [f"c{i:05d}" for i in range(nodes)]
    core = nodes - nodes // 50
    m = 4
    syntactic: set[tuple[str, str]] = set()
    targets = list(range(m))
    repeated: list[int] = []
    for new in range(m, core):  # preferential attachment (Barabasi & Albert 1999)
        for t in targets:
            syntactic.add((names[t], names[new]))
        repeated.extend(targets)
        repeated.extend([new] * m)
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        targets = list(targets)
    i = core
    while i + 1 < nodes:  # small components: pairs and triangles
        size = min(rng.choice((2, 3)), nodes - i)
        group = names[i:i + size]
        syntactic.update((a, b) for j, a in enumerate(group) for b in group[j + 1:])
        i += size
    synonym: set[tuple[str, str]] = set()
    while len(synonym) < int(nodes / 2.5):
        a, b = rng.sample(names, 2)
        synonym.add((min(a, b), max(a, b)))
    return MultiplexLexicalNetwork(
        nodes={s: Concept("unrated", None, frozenset()) for s in names},
        syntactic_edges=dict.fromkeys(sorted(syntactic), 1),
        synonym_edges=synonym,
        provenance={"corpus_id": "closeness_scale", "seed": seed},
    )


def per_node_rows(net: MultiplexLexicalNetwork, layer_mode: str):
    """closeness_rows computed with one BFS per node."""
    stems, nbrs = net.indexed(layer_mode.removesuffix("_only"))
    comps, seen = [], set()
    for u in range(len(stems)):
        if u not in seen:
            comps.append(set(bfs(nbrs, u)))
            seen |= comps[-1]
    out = []
    for comp in sorted(comps, key=lambda c: (-len(c), min(c))):  # the smallest id has the smallest stem
        rows = []
        for u in comp:
            dist = bfs(nbrs, u)
            if len(dist) > 1:
                rows.append((stems[u], len(dist) / sum(dist.values()), len(nbrs[u]), len(comp)))
        out.append(sorted(rows, key=lambda r: (-r[1], r[0])))
    return out


def differing_rows(rows, expected) -> int:
    """Rows that differ in value or position, component by component."""
    count = sum(map(len, rows[len(expected):])) + sum(map(len, expected[len(rows):]))
    for got, want in zip(rows, expected):
        count += sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    net = scale_network(args.nodes, args.seed)
    print(f"{len(net.nodes)} nodes, {len(net.syntactic_edges)} syntactic and "
          f"{len(net.synonym_edges)} synonym edges")
    print("layer_mode\tcomponents\tcloseness_rows_s\tper_node_bfs_s\tdiffering_rows")
    for mode in LAYER_MODES:
        times = []
        for _ in range(3):
            fresh = scale_network(args.nodes, args.seed)  # no view built yet
            start = perf_counter()
            rows = closeness_rows(fresh, mode)
            times.append(perf_counter() - start)
        start = perf_counter()
        expected = per_node_rows(net, mode)
        reference_s = perf_counter() - start
        print(f"{mode}\t{len(rows)}\t{min(times):.3f}\t{reference_s:.2f}\t"
              f"{differing_rows(rows, expected)}")
    times = []
    for _ in range(3):
        start = perf_counter()
        partition = louvain_partition(net, LOUVAIN_SEED)
        times.append(perf_counter() - start)
    groups: dict[int, list[str]] = {}
    for stem, cid in partition.communities.items():
        groups.setdefault(cid, []).append(stem)
    print("louvain_seed\tcommunities\tlouvain_partition_s\tequals_networkx")
    print(f"{LOUVAIN_SEED}\t{len(groups)}\t{min(times):.3f}\t{equals_networkx(net, groups.values())}")


def equals_networkx(net: MultiplexLexicalNetwork, groups) -> str:
    """Whether the groups are networkx's Louvain communities at LOUVAIN_SEED."""
    try:
        from networkx.algorithms.community import louvain_communities
    except ImportError:
        return "n/a"
    expected = louvain_communities(net.aggregate_graph(), seed=LOUVAIN_SEED)
    return str(sorted(map(sorted, groups)) == sorted(map(sorted, expected)))


if __name__ == "__main__":
    main()
