"""Multiplex lexical network construction.

Dependency trees are reduced to content-word graphs by contracting
function words (each removed node's tree neighbours are clique-connected),
stems are merged across the corpus into a syntactic layer, a synonym layer
is added from the lexicon, and every node is labelled with valence and
emotions. Counting a corpus's edges (`count_edges`) is kept apart from
assembling the network from the counts (`assemble_network`), so sentences
can be streamed, and counts of chunks merged, before the network is built.
"""

from __future__ import annotations

import functools
import json
import math
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from . import add_time, ingest, lexicons, stage, stemmer, workers

__all__ = [
    "Concept",
    "MultiplexLexicalNetwork",
    "Indexed",
    "indexed",
    "extract_syntactic_edges",
    "add_synonym_layer",
    "EdgeCounts",
    "count_edges",
    "count_corpus",
    "assemble_network",
    "build_network",
    "config_hash",
    "network_to_json",
    "network_from_json",
    "write_graphml",
    "read_graphml",
]

_CONTENT_UPOS = frozenset({"NOUN", "PROPN", "VERB", "ADJ", "ADV", "PRON"})
_VALENCE_LABELS = frozenset({"positive", "neutral", "negative", "unrated"})


class Concept(NamedTuple):
    """A node's labels; its stem is its key in `net.nodes`, the only copy.
    A NamedTuple, as is every record but `MultiplexLexicalNetwork`."""

    valence_label: str  # positive | neutral | negative | unrated
    valence_score: float | None
    emotions: frozenset[str]
    is_negation_marker: bool = False


class Indexed(NamedTuple):
    """A graph with ids: stems[u] is node u, nbrs[u] its sorted neighbour
    ids. Ids number the stems in sorted order, so comparing two ids compares
    the stems: an id pair (lo, hi) orients an edge as the stem pair does, and
    sorted id pairs list the edges in sorted-stem order. Every graph query
    reads these ids, so its floats and random draws are the ones it would
    give on the stems."""

    stems: tuple[str, ...]
    nbrs: tuple[tuple[int, ...], ...]

    def id_of(self, stem: str) -> int:
        """The id of a node's stem; KeyError if no node has it."""
        u = bisect_left(self.stems, stem)
        if u == len(self.stems) or self.stems[u] != stem:
            raise KeyError(f"unknown node {stem!r}")
        return u


def indexed(nodes: Iterable[str], *edge_collections: Iterable[tuple[str, str]]) -> Indexed:
    """The sorted-stem numbering of the nodes, with the neighbours of the
    edge collections' union; an edge may name only given nodes."""
    stems = tuple(sorted(set(nodes)))
    ids = {s: i for i, s in enumerate(stems)}
    nbrs: list[set[int]] = [set() for _ in stems]
    for edges in edge_collections:
        for a, b in edges:
            u, v = ids[a], ids[b]
            nbrs[u].add(v)
            nbrs[v].add(u)
    return Indexed(stems, tuple([tuple(sorted(nb)) for nb in nbrs]))


@dataclass
class MultiplexLexicalNetwork:
    nodes: dict[str, Concept]
    syntactic_edges: dict[tuple[str, str], int]  # ordered pair (min, max) -> count
    synonym_edges: set[tuple[str, str]]
    provenance: dict
    # index of each view, built on its first request; edit no field after
    _indexed: dict[str, Indexed] = field(default_factory=dict, init=False, repr=False, compare=False)

    def indexed(self, view: str = "aggregate") -> Indexed:
        """The aggregate (both layers), syntactic or synonym view with
        sorted-stem ids; every view numbers all nodes alike."""
        if view not in self._indexed:
            self._indexed[view] = indexed(self.nodes, *self._layers(view))
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
        for s, c in self.nodes.items():
            if not isinstance(c.valence_label, str) or c.valence_label not in _VALENCE_LABELS:
                raise ValueError(f"node {s!r}: unknown valence_label {c.valence_label!r}")
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
    # the cheap test first: most content tokens need no lower-casing
    if token.upos in _CONTENT_UPOS and token.deprel != "cop":
        return True
    return token.surface.lower() in negations or token.lemma.lower() in negations


@functools.cache  # a corpus repeats its words
def _word_stem(word: str, negations: frozenset[str]) -> str | None:
    word = word.lower()
    if word in negations:
        return word
    if not word.isalpha():
        word = "".join(ch for ch in word if ch.isalpha())
    if not word:
        return None
    return stemmer.stem(word)


def extract_syntactic_edges(sentence: ingest.ParsedSentence) -> set[tuple[str, str]]:
    """Contract function words out of the dependency tree and return the
    remaining edges as undirected stem pairs.

    Each function node (adposition, auxiliary, copula, determiner,
    conjunction, punctuation, non-negation particle) is removed and its
    tree neighbours clique-connected, iterated to a fixed point, so content
    words connected through function words stay connected.

    Expects a validated sentence (`ParsedSentence.validate`): its tokens are
    numbered 1..n in order and every head is in 0..n, so the adjacency and
    the stems are lists indexed by token id.
    """
    negations = ingest.word_classes().negations
    tokens = sentence.tokens
    adj: list[set[int] | None] = [set() for _ in range(len(tokens) + 1)]
    for index, _, _, _, head, _ in tokens:
        if head:
            adj[index].add(head)
            adj[head].add(index)

    stems: list[str | None] = [None] * len(adj)
    for tok in tokens:
        index, surface, lemma, _, _, _ = tok
        if _is_content(tok, negations):
            stems[index] = _word_stem(lemma or surface, negations)
        else:
            neighbors = adj[index]
            adj[index] = None  # removed: every remaining neighbour set drops it
            for u in neighbors:
                nbrs = adj[u]
                nbrs |= neighbors
                nbrs.discard(u)
                nbrs.discard(index)

    # adj is symmetric, so each edge is met from both ends and kept from the one with the smaller stem
    edges: set[tuple[str, str]] = set()
    for u, nbrs in enumerate(adj):
        su = stems[u]
        if su is None:  # a removed function word, or a word without letters
            continue
        for v in nbrs:
            sv = stems[v]
            if sv is not None and su < sv:
                edges.add((su, sv))
    return edges


def add_synonym_layer(
    node_stems: set[str], lexicon: lexicons.SynonymLexicon
) -> set[tuple[str, str]]:
    """Synonym edges between stems that both occur in the text; the lexicon
    never introduces nodes."""
    return {
        (a, b)
        for a, b in lexicon.pairs
        if a in node_stems and b in node_stems
    }


class EdgeCounts(NamedTuple):
    """What a corpus contributes to a network: each syntactic stem pair with
    the number of sentences it occurs in, in first-seen order, the number of
    sentences and how many of them gave no edge."""

    edges: dict[tuple[str, str], int]
    sentences: int
    edgeless: int


def count_edges(sentences: Iterable[ingest.ParsedSentence]) -> EdgeCounts:
    """`extract_syntactic_edges` over any iterable of sentences, each
    sentence dropped once its edges are counted. Stage "contract" gets the
    time spent on the sentences, from two clock reads each, but not the time
    the iterable takes to give them."""
    edge_counts: dict[tuple[str, str], int] = {}
    n_sentences = edgeless = 0
    busy = 0.0
    for sentence in sentences:
        start = perf_counter()
        n_sentences += 1
        edges = extract_syntactic_edges(sentence)
        if not edges:
            edgeless += 1
        for pair in edges:
            edge_counts[pair] = edge_counts.get(pair, 0) + 1
        busy += perf_counter() - start
    add_time("contract", busy, n_sentences)
    return EdgeCounts(edge_counts, n_sentences, edgeless)


def count_corpus(corpus: Path, corpus_format: str, min_words: int):
    """(edge counts, ingest stats) of a corpus file, as `tfmn build` counts it.
    A text corpus is read whole, since the duplicate-id check needs every
    document, and split into contiguous chunks, one per usable CPU, by
    `workers.map_chunks`, which forks a worker for each chunk but the first.
    Each chunk streams its documents through `ingest.parse_documents` into
    edge counts, keeping no sentence, and the chunks' counts are merged in
    document order: edges keep the first-seen order of one process, whatever
    the number of workers."""
    if corpus_format == "conllu":
        sentences, rejections = ingest.parse_conllu(corpus)
        documents = len({s.doc_id for s in sentences})
        return count_edges(sentences), {"documents": documents, "dropped_short": 0,
                                        "unparsed_sentences": 0, "rejected": len(rejections)}
    docs = ingest.read_text_corpus(corpus)
    ingest.word_classes()  # loaded once, before the fork, so that workers inherit it

    def count_chunk(chunk: list[ingest.RawDocument]):
        ingest_stats = Counter()
        return count_edges(ingest.parse_documents(chunk, min_words, ingest_stats)), ingest_stats

    edges, sentences, edgeless = Counter(), 0, 0  # a Counter keeps first-seen order
    ingest_stats = Counter(documents=0, dropped_short=0, unparsed_sentences=0, rejected=0)
    for chunk_counts, chunk_stats in workers.map_chunks(count_chunk, docs):
        edges.update(chunk_counts.edges)
        sentences += chunk_counts.sentences
        edgeless += chunk_counts.edgeless
        ingest_stats.update(chunk_stats)
    return EdgeCounts(dict(edges), sentences, edgeless), dict(ingest_stats)


def assemble_network(
    counts: EdgeCounts,
    valence: lexicons.ValenceLexicon,
    emotions: lexicons.EmotionLexicon,
    synonyms: lexicons.SynonymLexicon,
    corpus_id: str = "corpus",
    config: dict | None = None,
) -> MultiplexLexicalNetwork:
    """The validated multiplex network of a corpus's edge counts: labelled
    nodes, the synonym layer and provenance."""
    if not counts.sentences:
        raise ValueError("no sentences")
    negations = ingest.word_classes().negations
    node_stems = {s for pair in counts.edges for s in pair}
    with stage("assemble", len(node_stems)):
        nodes = {}
        for s in sorted(node_stems):
            nodes[s] = Concept(
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
            "sentence_count": counts.sentences,
            "edgeless_sentences": counts.edgeless,
            "edge_direction": "discarded (undirected analyses)",
        }
        net = MultiplexLexicalNetwork(
            nodes=nodes,
            syntactic_edges=counts.edges,
            synonym_edges=add_synonym_layer(node_stems, synonyms),
            provenance=provenance,
        )
        net.validate()
    return net


def build_network(
    sentences: Iterable[ingest.ParsedSentence],
    valence: lexicons.ValenceLexicon,
    emotions: lexicons.EmotionLexicon,
    synonyms: lexicons.SynonymLexicon,
    corpus_id: str = "corpus",
    config: dict | None = None,
) -> MultiplexLexicalNetwork:
    """Assemble the full multiplex network from parsed sentences, which may
    come from a generator: `assemble_network(count_edges(sentences), ...)`."""
    return assemble_network(count_edges(sentences), valence, emotions, synonyms, corpus_id, config)


def config_hash(settings: dict) -> str:
    """Short stable digest of a settings dict, stamped on every output."""
    import hashlib  # here, so that commands which stamp nothing do not pay for its import

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
        f'   "stem": {q(s)},\n   "valence_label": {q(c.valence_label)},\n'
        f'   "valence_score": {_json_number(c.valence_score)}\n  }}'
        for s, c in sorted(net.nodes.items())
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
    with stage("load_network", 1):
        return network_from_json(Path(path).read_text(encoding="utf-8"))


def save_network(net: MultiplexLexicalNetwork, path: str | Path) -> None:
    with stage("write_network", 1):
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


def _graphml_data(indent: str, key: str, text: str) -> str:
    if _TEXT_SPECIAL(text):
        text = text.translate(_TEXT_ESCAPES)
    if not text:
        return f'{indent}<data key="{key}" />\n'
    return f'{indent}<data key="{key}">{text}</data>\n'


def write_graphml(net: MultiplexLexicalNetwork, path: str | Path) -> None:
    """GraphML of the network, byte for byte what networkx's writer gives,
    with the stdlib only; valence_score is always a double (-999.0 when
    missing). A NaN or infinite score is refused before the file is opened,
    as network_to_json refuses it, and so is a score of -999.0, which would
    read back as missing. An edge in both layers has layer
    "syntactic+synonym", a synonym-only edge count 0.

    Each <node> and each <edge> is one f-string template. Each stem is
    escaped for an attribute once, into a dict that both templates read.
    Only the emotions and the provenance can hold a character to escape
    (or be empty, as `<data key="d3" />`), so only they go through
    _graphml_data; labels, scores, booleans, layers and counts are written
    as they are. The network must be valid."""
    with stage("write_graphml", 1):
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
        ids = {s: _attr(s) for s in sorted(net.nodes)}
        for s, node_id in ids.items():
            c = net.nodes[s]
            score = -999.0 if c.valence_score is None else _finite(float(c.valence_score))
            if score == -999.0 and c.valence_score is not None:
                raise ValueError(f"node {s!r}: valence_score -999.0 is GraphML's mark of a missing score")
            emotions = _graphml_data("      ", "d3", ",".join(sorted(c.emotions)))
            out.append(f'    <node id="{node_id}">\n'
                       f'      <data key="d1">{c.valence_label}</data>\n'
                       f'      <data key="d2">{score}</data>\n'
                       f'{emotions}'
                       f'      <data key="d4">{c.is_negation_marker}</data>\n'
                       f'    </node>\n')
        # grouped by the smaller stem, as networkx walks its neighbour dicts
        for (a, b), (layer, count) in sorted(edges.items(), key=lambda e: e[0][0]):
            out.append(f'    <edge source="{ids[a]}" target="{ids[b]}">\n'
                       f'      <data key="d5">{layer}</data>\n'
                       f'      <data key="d6">{count}</data>\n'
                       f'    </edge>\n')
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
