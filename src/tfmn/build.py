"""Multiplex lexical network construction.

Dependency trees are reduced to content-word graphs by contracting
function words (each removed node's tree neighbours are clique-connected),
stems are merged across the corpus into a syntactic layer, a synonym layer
is added from the lexicon, and every node is labelled with valence and
emotions.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .ingest import ParsedSentence, word_classes
from .lexicons import EmotionLexicon, SynonymLexicon, ValenceLexicon
from .stemmer import stem

__all__ = [
    "Concept",
    "MultiplexLexicalNetwork",
    "adjacency",
    "Indexed",
    "indexed",
    "extract_syntactic_edges",
    "add_synonym_layer",
    "build_network",
    "config_hash",
    "network_to_json",
    "network_from_json",
    "write_graphml",
    "read_graphml",
]

_CONTENT_UPOS = frozenset({"NOUN", "PROPN", "VERB", "ADJ", "ADV", "PRON"})
_VALENCE_LABELS = frozenset({"positive", "neutral", "negative", "unrated"})
Adjacency = Mapping[str, frozenset[str]]  # stem -> neighbour stems


@dataclass(frozen=True)
class Concept:
    stem: str
    valence_label: str  # positive | neutral | negative | unrated
    valence_score: float | None
    emotions: frozenset[str]
    is_negation_marker: bool = False


def adjacency(nodes: Iterable[str], *edge_collections: Iterable[tuple[str, str]]) -> Adjacency:
    """Read-only neighbour map of the edge collections' union; every node a key, in sorted order."""
    adj: dict[str, set[str]] = {s: set() for s in sorted(nodes)}
    for edges in edge_collections:
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
    return MappingProxyType({s: frozenset(nbrs) for s, nbrs in adj.items()})


class Indexed(NamedTuple):
    """An adjacency map with ids: stems[u] is node u, nbrs[u] its sorted
    neighbour ids. Ids number the stems in sorted order, so comparing two ids
    compares the stems: an id pair (lo, hi) orients an edge as the stem pair
    does, and sorted id pairs list the edges in sorted-stem order. Closeness,
    Louvain and the swap kernel read these ids, so their floats and random
    draws are the ones they would give on the stems."""

    stems: tuple[str, ...]
    nbrs: tuple[tuple[int, ...], ...]


def indexed(adj: Adjacency) -> Indexed:
    """The sorted-stem numbering of an adjacency map."""
    stems = tuple(sorted(adj))
    ids = {s: i for i, s in enumerate(stems)}
    return Indexed(stems, tuple([tuple(sorted(map(ids.__getitem__, adj[s]))) for s in stems]))


@dataclass
class MultiplexLexicalNetwork:
    nodes: dict[str, Concept]
    syntactic_edges: dict[tuple[str, str], int]  # ordered pair (min, max) -> count
    synonym_edges: set[tuple[str, str]]
    provenance: dict
    # adjacency and index of each view, built on its first request; edit no field after
    _adjacency: dict[str, Adjacency] = field(default_factory=dict, init=False, repr=False, compare=False)
    _indexed: dict[str, Indexed] = field(default_factory=dict, init=False, repr=False, compare=False)

    def adjacency(self, view: str = "aggregate") -> Adjacency:
        """Neighbour map of the aggregate (both layers), syntactic or synonym view."""
        if view not in self._adjacency:
            self._adjacency[view] = adjacency(self.nodes, *self._layers(view))
        return self._adjacency[view]

    def indexed(self, view: str = "aggregate") -> Indexed:
        """The view's adjacency with sorted-stem ids; every view numbers all nodes alike."""
        if view not in self._indexed:
            self._indexed[view] = indexed(self.adjacency(view))
        return self._indexed[view]

    def _layers(self, view: str) -> tuple:
        layers = {"aggregate": (self.syntactic_edges, self.synonym_edges),
                  "syntactic": (self.syntactic_edges,), "synonym": (self.synonym_edges,)}
        if view not in layers:
            raise ValueError(f"unknown layer {view!r}")
        return layers[view]

    def aggregate_graph(self):
        """A new networkx graph of the aggregate view; networkx must be installed."""
        return self._nx_graph("aggregate")

    def layer_graph(self, layer: str):
        """A new networkx graph of the syntactic or synonym view."""
        return self._nx_graph(layer)

    def _nx_graph(self, view: str):
        """Nodes, then each layer's edges, in sorted order, the neighbour order that
        louvain_partition reads from the layer indexes, so networkx's Louvain agrees."""
        import networkx as nx  # a test and reference dependency only

        g = nx.Graph()
        g.add_nodes_from(sorted(self.nodes))
        for edges in self._layers(view):
            g.add_edges_from(sorted(edges))
        return g

    def validate(self) -> None:
        for c in self.nodes.values():
            if not isinstance(c.valence_label, str) or c.valence_label not in _VALENCE_LABELS:
                raise ValueError(f"node {c.stem!r}: unknown valence_label {c.valence_label!r}")
        for layer in (self.syntactic_edges, self.synonym_edges):
            for pair in layer:
                a, b = pair
                if a == b:
                    raise ValueError(f"self-loop {pair}")
                if a not in self.nodes or b not in self.nodes:
                    raise ValueError(f"edge {pair} references missing node")
                # the readers and build_network store (min, max) pairs; a reversed pair repeats one
                if a > b and (b, a) in layer:
                    raise ValueError("duplicate edge: a pair is listed twice in one layer")


def _ordered(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _is_content(token, negations: frozenset[str]) -> bool:
    if token.surface.lower() in negations or token.lemma.lower() in negations:
        return True
    return token.upos in _CONTENT_UPOS and token.deprel != "cop"


def _token_stem(token, negations: frozenset[str]) -> str | None:
    return _word_stem(token.lemma or token.surface, negations)


@functools.cache  # a corpus repeats its words
def _word_stem(word: str, negations: frozenset[str]) -> str | None:
    word = word.lower()
    if word in negations:
        return word
    word = "".join(ch for ch in word if ch.isalpha())
    if not word:
        return None
    return stem(word)


def extract_syntactic_edges(sentence: ParsedSentence) -> set[tuple[str, str]]:
    """Contract function words out of the dependency tree and return the
    remaining edges as undirected stem pairs.

    Each function node (adposition, auxiliary, copula, determiner,
    conjunction, punctuation, non-negation particle) is removed and its
    tree neighbours clique-connected, iterated to a fixed point, so content
    words connected through function words stay connected.
    """
    negations = word_classes().negations
    adj: dict[int, set[int]] = {tok.index: set() for tok in sentence.tokens}
    for tok in sentence.tokens:
        if tok.head != 0:
            adj[tok.index].add(tok.head)
            adj[tok.head].add(tok.index)

    stems: dict[int, str | None] = {}
    for tok in sentence.tokens:
        if _is_content(tok, negations):
            stems[tok.index] = _token_stem(tok, negations)
        else:
            neighbors = adj.pop(tok.index)
            for u in neighbors:
                adj[u] |= neighbors
                adj[u] -= {u, tok.index}

    # adj is symmetric, so each edge is met from both ends and kept from the one with the smaller stem
    edges: set[tuple[str, str]] = set()
    for u, nbrs in adj.items():
        for v in nbrs:
            su, sv = stems[u], stems[v]
            if su is not None and sv is not None and su < sv:
                edges.add((su, sv))
    return edges


def add_synonym_layer(
    node_stems: set[str], lexicon: SynonymLexicon
) -> set[tuple[str, str]]:
    """Synonym edges between stems that both occur in the text; the lexicon
    never introduces nodes."""
    return {
        (a, b)
        for a, b in lexicon.pairs
        if a in node_stems and b in node_stems
    }


def build_network(
    sentences: list[ParsedSentence],
    valence: ValenceLexicon,
    emotions: EmotionLexicon,
    synonyms: SynonymLexicon,
    corpus_id: str = "corpus",
    config: dict | None = None,
) -> MultiplexLexicalNetwork:
    """Assemble the full multiplex network from parsed sentences."""
    if not sentences:
        raise ValueError("no sentences")
    negations = word_classes().negations

    edge_counts: dict[tuple[str, str], int] = {}
    skipped_sentences = 0
    for sentence in sentences:
        edges = extract_syntactic_edges(sentence)
        if not edges:
            skipped_sentences += 1
        for pair in edges:
            edge_counts[pair] = edge_counts.get(pair, 0) + 1

    node_stems = {s for pair in edge_counts for s in pair}
    synonym_edges = add_synonym_layer(node_stems, synonyms)

    nodes = {}
    for s in sorted(node_stems):
        nodes[s] = Concept(
            stem=s,
            valence_label=valence.label(s),
            valence_score=valence.score(s),
            emotions=emotions.emotions(s),
            is_negation_marker=s in negations,
        )

    config = dict(config or {})
    provenance = {
        "corpus_id": corpus_id,
        "config": config,
        "config_hash": config_hash(config),
        "sentence_count": len(sentences),
        "edgeless_sentences": skipped_sentences,
        "edge_direction": "discarded (undirected analyses)",
    }
    net = MultiplexLexicalNetwork(
        nodes=nodes,
        syntactic_edges=edge_counts,
        synonym_edges=synonym_edges,
        provenance=provenance,
    )
    net.validate()
    return net


def config_hash(settings: dict) -> str:
    """Short stable digest of a settings dict, stamped on every output."""
    return hashlib.sha256(
        json.dumps(settings, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]


def summary(net: MultiplexLexicalNetwork) -> dict:
    labels = [c.valence_label for c in net.nodes.values()]
    return {
        "nodes": len(net.nodes),
        "syntactic_edges": len(net.syntactic_edges),
        "synonym_edges": len(net.synonym_edges),
        "positive": labels.count("positive"),
        "negative": labels.count("negative"),
        "neutral": labels.count("neutral"),
        "unrated": labels.count("unrated"),
        "provenance": net.provenance,
    }


# ---------------------------------------------------------------------------
# serialization

def network_to_json(net: MultiplexLexicalNetwork) -> str:
    """The network as json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    writes it, for a payload of sorted "nodes" ({"emotions": [...],
    "is_negation_marker", "stem", "valence_label", "valence_score"}),
    "syntactic_edges" ([a, b, count]), "synonym_edges" ([a, b]) and
    "provenance". With an indent json.dumps runs its pure-Python encoder, so
    the rows are laid out here, strings escaped by its C escaper; the
    provenance, of no fixed shape, still goes through json.dumps."""
    q = encode_basestring_ascii
    nodes = [
        f'{{\n   "emotions": {_json_array([q(e) for e in sorted(c.emotions)], "   ")},\n'
        f'   "is_negation_marker": {"true" if c.is_negation_marker else "false"},\n'
        f'   "stem": {q(c.stem)},\n   "valence_label": {q(c.valence_label)},\n'
        f'   "valence_score": {_json_number(c.valence_score)}\n  }}'
        for c in (net.nodes[s] for s in sorted(net.nodes))
    ]
    syntactic = [f"[\n   {q(a)},\n   {q(b)},\n   {int.__repr__(count)}\n  ]"
                 for (a, b), count in sorted(net.syntactic_edges.items())]
    synonym = [f"[\n   {q(a)},\n   {q(b)}\n  ]" for a, b in sorted(net.synonym_edges)]
    # one level deeper than json.dumps puts it; a JSON string holds no raw newline
    provenance = json.dumps(net.provenance, sort_keys=True, indent=1, allow_nan=False)
    provenance = provenance.replace("\n", "\n ")
    return (f'{{\n "nodes": {_json_array(nodes, " ")},\n'
            f' "provenance": {provenance},\n'
            f' "synonym_edges": {_json_array(synonym, " ")},\n'
            f' "syntactic_edges": {_json_array(syntactic, " ")}\n}}')


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array whose closing bracket stands at indent, of items encoded
    one level deeper, as json.dumps(indent=1) writes it."""
    if not items:
        return "[]"
    return f"[\n{indent} " + f",\n{indent} ".join(items) + f"\n{indent}]"


def _json_number(x) -> str:
    """None, an int or a finite float, as json.dumps writes it."""
    if x is None:
        return "null"
    if not isinstance(x, float):
        return int.__repr__(x)
    return float.__repr__(_finite(x))


def _finite(x: float) -> float:
    """x, refused if it is NaN or infinite, with json.dumps's message."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return x


def _no_constant(constant: str):
    """json.loads's parse_constant: strict JSON has no NaN, Infinity or -Infinity."""
    raise ValueError(f"{constant} is not strict JSON")


def network_from_json(text: str) -> MultiplexLexicalNetwork:
    try:
        return _network(json.loads(text, parse_constant=_no_constant))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValueError(f"invalid network file: {exc}") from exc


def _network(payload) -> MultiplexLexicalNetwork:
    """The validated network of a payload shaped like network JSON; every
    reader ends here. Raises KeyError, TypeError or ValueError, which the
    reader wraps with the kind of file it read."""
    nodes = {
        _typed(n["stem"], str, "stem"): Concept(
            stem=n["stem"],
            valence_label=n["valence_label"],  # validate() checks it
            valence_score=_valence_score(n["valence_score"]),
            emotions=frozenset(_typed(e, str, "emotion") for e in _typed(n["emotions"], list, "emotions")),
            is_negation_marker=_typed(n["is_negation_marker"], bool, "is_negation_marker"),
        )
        for n in payload["nodes"]
    }
    if len(nodes) < len(payload["nodes"]):
        raise ValueError("duplicate stem: two nodes entries share a stem")
    syntactic = {_ordered(a, b): count for a, b, count in payload["syntactic_edges"]}
    synonym = {_ordered(a, b) for a, b in payload["synonym_edges"]}
    if (len(syntactic) < len(payload["syntactic_edges"])
            or len(synonym) < len(payload["synonym_edges"])):
        raise ValueError("duplicate edge: a pair is listed twice in one layer")
    if not all(_typed(count, int, "edge count") >= 1 for count in syntactic.values()):
        raise ValueError("edge count below 1")
    provenance = _typed(payload["provenance"], dict, "provenance")
    net = MultiplexLexicalNetwork(nodes, syntactic, synonym, provenance)
    net.validate()
    return net


def _typed(value, kind, what: str):
    """The value, if it is an instance of kind; a bool counts only as a bool."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{what} has the wrong type: {value!r}")
    return value


def _valence_score(score):
    """None or a number that a double holds finitely (strict JSON has no NaN or Infinity)."""
    _typed(score, (int, float, type(None)), "valence_score")
    try:
        if score is None or math.isfinite(score):
            return score
    except OverflowError:  # an int too large for a double
        pass
    raise ValueError(f"valence_score is not a finite number: {score!r}")


def load_network(path: str | Path) -> MultiplexLexicalNetwork:
    return network_from_json(Path(path).read_text(encoding="utf-8"))


def save_network(net: MultiplexLexicalNetwork, path: str | Path) -> None:
    Path(path).write_text(network_to_json(net), encoding="utf-8")


# The layout networkx's ElementTree writer gives this network: keys d0-d6
# listed in reverse, two-space indent, the graph's data after its edges.
_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
    'http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n'
)
_GRAPHML_KEYS = [  # (for, attr.name, attr.type) of key d0, d1, ...
    ("graph", "provenance", "string"),
    ("node", "valence_label", "string"),
    ("node", "valence_score", "double"),
    ("node", "emotions", "string"),
    ("node", "is_negation_marker", "boolean"),
    ("edge", "layer", "string"),
    ("edge", "count", "long"),
]
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                               "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})
# translate costs several times a search, and few strings hold a character to escape
_TEXT_SPECIAL = re.compile("[&<>]").search
_ATTR_SPECIAL = re.compile('[&<>"\r\n\t]').search


def _attr(text: str) -> str:
    return text.translate(_ATTR_ESCAPES) if _ATTR_SPECIAL(text) else text


def _graphml_data(indent: str, key: str, value) -> str:
    text = str(value)
    if _TEXT_SPECIAL(text):
        text = text.translate(_TEXT_ESCAPES)
    if not text:
        return f'{indent}<data key="{key}" />\n'
    return f'{indent}<data key="{key}">{text}</data>\n'


def write_graphml(net: MultiplexLexicalNetwork, path: str | Path) -> None:
    """GraphML of the network, byte for byte what networkx's writer gives,
    with the stdlib only; valence_score is always a double (-999.0 when
    missing), and a NaN or infinite one is refused before the file is
    opened, as network_to_json refuses it. An edge in both layers has layer
    "syntactic+synonym", a synonym-only edge count 0."""
    edges: dict[tuple[str, str], list] = {}  # pair -> [layer, count], first seen first
    for pair, count in sorted(net.syntactic_edges.items()):
        edges[_ordered(*pair)] = ["syntactic", count]
    for pair in sorted(net.synonym_edges):
        pair = _ordered(*pair)
        if pair in edges:
            edges[pair][0] = "syntactic+synonym"
        else:
            edges[pair] = ["synonym", 0]

    n_keys = 7 if edges else 5 if net.nodes else 1
    out = [_GRAPHML_HEAD]
    for i in reversed(range(n_keys)):
        scope, name, kind = _GRAPHML_KEYS[i]
        out.append(f'  <key id="d{i}" for="{scope}" attr.name="{name}" attr.type="{kind}" />\n')
    out.append('  <graph edgedefault="undirected">\n')
    for s in sorted(net.nodes):
        c = net.nodes[s]
        score = -999.0 if c.valence_score is None else _finite(float(c.valence_score))
        out += [f'    <node id="{_attr(s)}">\n',
                _graphml_data("      ", "d1", c.valence_label),
                _graphml_data("      ", "d2", score),
                _graphml_data("      ", "d3", ",".join(sorted(c.emotions))),
                _graphml_data("      ", "d4", c.is_negation_marker),
                "    </node>\n"]
    # grouped by the smaller stem, as networkx walks its adjacency
    for (a, b), (layer, count) in sorted(edges.items(), key=lambda e: e[0][0]):
        out += [f'    <edge source="{_attr(a)}" target="{_attr(b)}">\n',
                _graphml_data("      ", "d5", layer),
                _graphml_data("      ", "d6", count),
                "    </edge>\n"]
    out += [_graphml_data("    ", "d0", json.dumps(net.provenance, sort_keys=True, allow_nan=False)),
            "  </graph>\n</graphml>\n"]
    Path(path).write_bytes("".join(out).encode("utf-8", "xmlcharrefreplace"))


_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"
_GRAPHML_BOOLS = {"true": True, "false": False, "1": True, "0": False}
_GRAPHML_TYPES = {"string": str, "int": int, "long": int, "float": float, "double": float,
                  "boolean": lambda text: _GRAPHML_BOOLS[text.lower()]}


def read_graphml(path: str | Path) -> MultiplexLexicalNetwork:
    """The network of a GraphML file that write_graphml wrote, with <data>
    decoded through each <key>'s attr.name and attr.type as networkx reads
    them, then checked as network JSON is. Raises ValueError on a file that
    holds no valid network."""
    from xml.etree import ElementTree  # here, so that no command pays for its import

    try:
        root = ElementTree.parse(path).getroot()
        keys = {k.get("id"): (k.get("attr.name"), _GRAPHML_TYPES[k.get("attr.type", "string")])
                for k in root.findall(f"{_GRAPHML_NS}key")}

        def data(element) -> dict:
            decoded, seen = {}, set()
            for d in element.findall(f"{_GRAPHML_NS}data"):
                name, kind = keys[d.get("key")]
                if name in seen:
                    raise ValueError(f"duplicate <data> for {name!r}")
                seen.add(name)
                if d.text is not None:
                    decoded[name] = kind(d.text)
            return decoded

        graph = root.find(f"{_GRAPHML_NS}graph")
        if graph is None:
            raise ValueError("no <graph> element")
        nodes = []
        for element in graph.findall(f"{_GRAPHML_NS}node"):
            d = data(element)
            score = d.get("valence_score", -999.0)
            nodes.append({
                "stem": element.get("id"),
                "valence_label": d.get("valence_label"),
                "valence_score": None if score == -999.0 else score,
                "emotions": [e for e in _typed(d.get("emotions", ""), str, "emotions").split(",") if e],
                "is_negation_marker": d.get("is_negation_marker", False),
            })
        syntactic, synonym, seen = [], [], set()
        for element in graph.findall(f"{_GRAPHML_NS}edge"):
            pair, d = _ordered(element.get("source"), element.get("target")), data(element)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            layer = d["layer"]
            if layer not in ("syntactic", "synonym", "syntactic+synonym"):
                raise ValueError(f"unknown edge layer {layer!r}")
            if layer != "synonym":
                syntactic.append([*pair, d.get("count", 1)])
            if layer != "syntactic":
                synonym.append(pair)
        return _network({
            "nodes": nodes, "syntactic_edges": syntactic, "synonym_edges": synonym,
            "provenance": json.loads(data(graph).get(
                "provenance", '{"corpus_id": "graphml", "config": {}, "config_hash": ""}'),
                parse_constant=_no_constant),
        })
    except (KeyError, TypeError, ValueError, RecursionError, ElementTree.ParseError) as exc:
        raise ValueError(f"invalid GraphML file: {exc}") from exc
