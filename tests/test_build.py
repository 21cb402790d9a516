import dataclasses
import json
import tempfile
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from tfmn.build import (
    _VALENCE_LABELS,
    Concept,
    MultiplexLexicalNetwork,
    _is_content,
    _ordered,
    _word_stem,
    add_synonym_layer,
    build_network,
    count_corpus,
    count_edges,
    extract_syntactic_edges,
    indexed,
    network_from_json,
    network_to_json,
    read_graphml,
    summary,
    write_graphml,
)
from tfmn.ingest import (
    ParsedSentence,
    Token,
    heuristic_parse,
    parse_documents,
    read_text_corpus,
    word_classes,
)
from tfmn.lexicons import SynonymLexicon

from conftest import FORKED_CORPUS, assert_no_child_left, make_network


def edges_of(sentence: str) -> set[tuple[str, str]]:
    return extract_syntactic_edges(heuristic_parse(sentence))


# ---------------------------------------------------------------------------
# function-word contraction, worked examples


def test_copula_contraction():
    assert edges_of("love is weakness") == {("love", "weak")}


def test_preposition_contraction():
    assert edges_of("the cat sat on the chair") == {("cat", "sit"), ("chair", "sit")}


def test_negation_kept_as_node():
    assert edges_of("man is not god") == {("man", "not"), ("god", "not")}


def test_contraction_is_transitive():
    # two function words in a row still connect their content neighbours
    sent = ParsedSentence(
        doc_id="t",
        tokens=(
            Token(1, "cat", "cat", "NOUN", 4, "nsubj"),
            Token(2, "may", "may", "AUX", 4, "aux"),
            Token(3, "have", "have", "AUX", 4, "aux"),
            Token(4, "slept", "sleep", "VERB", 0, "root"),
        ),
    )
    assert extract_syntactic_edges(sent) == {("cat", "sleep")}


def test_self_loop_after_stemming_dropped():
    # distinct surface forms with a shared stem never yield a self-loop
    sent = ParsedSentence(
        doc_id="t",
        tokens=(
            Token(1, "runner", "runner", "NOUN", 2, "nsubj"),
            Token(2, "runs", "run", "VERB", 0, "root"),
            Token(3, "running", "running", "NOUN", 2, "obj"),
        ),
    )
    assert extract_syntactic_edges(sent) == {("run", "runner")}


def test_function_only_sentence_yields_no_edges():
    sent = ParsedSentence(
        doc_id="t",
        tokens=(
            Token(1, "is", "be", "AUX", 0, "root"),
            Token(2, "the", "the", "DET", 1, "det"),
        ),
    )
    assert extract_syntactic_edges(sent) == set()


def test_punctuation_contracted():
    sent = ParsedSentence(
        doc_id="t",
        tokens=(
            Token(1, "cats", "cat", "NOUN", 2, "nsubj"),
            Token(2, "sleep", "sleep", "VERB", 0, "root"),
            Token(3, ".", ".", "PUNCT", 2, "punct"),
        ),
    )
    assert extract_syntactic_edges(sent) == {("cat", "sleep")}


def reference_contraction(sentence: ParsedSentence) -> set[tuple[str, str]]:
    """The contraction of one sentence on an nx.Graph; extract_syntactic_edges
    must give the same edges."""
    negations = word_classes().negations
    g = nx.Graph()
    for tok in sentence.tokens:
        g.add_node(tok.index)
        if tok.head != 0:
            g.add_edge(tok.index, tok.head)
    function_nodes = [tok.index for tok in sentence.tokens if not _is_content(tok, negations)]
    for node in function_nodes:
        neighbors = list(g.neighbors(node))
        g.remove_node(node)
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1 :]:
                g.add_edge(u, v)
    by_index = {tok.index: tok for tok in sentence.tokens}
    edges = set()
    for u, v in g.edges():
        su = _word_stem(by_index[u].lemma or by_index[u].surface, negations)
        sv = _word_stem(by_index[v].lemma or by_index[v].surface, negations)
        if su is None or sv is None or su == sv:
            continue
        edges.add(_ordered(su, sv))
    return edges


# (surface, lemma, upos, deprel): content words (some sharing a stem or with
# no letters), function words, a copula and negations
TOKEN_KINDS = [
    ("cats", "cat", "NOUN", "nsubj"), ("cat", "cat", "NOUN", "obj"), ("runs", "run", "VERB", "conj"),
    ("running", "running", "NOUN", "obj"), ("bright", "bright", "ADJ", "amod"),
    ("fast", "fast", "ADV", "advmod"), ("42", "42", "NOUN", "nummod"), ("she", "she", "PRON", "nsubj"),
    ("the", "the", "DET", "det"), ("of", "of", "ADP", "case"), ("and", "and", "CCONJ", "cc"),
    ("may", "may", "AUX", "aux"), (".", ".", "PUNCT", "punct"), ("is", "be", "AUX", "cop"),
    ("seems", "seem", "VERB", "cop"), ("not", "not", "PART", "advmod"), ("never", "never", "ADV", "advmod"),
]


@st.composite
def dependency_trees(draw) -> ParsedSentence:
    """Valid trees: token k's head is 0 for the root, else a token placed
    before it in a random order, so head links never form a cycle."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for pos in range(1, n):
        heads[order[pos]] = order[draw(st.integers(0, pos - 1))]
    kinds = draw(st.lists(st.sampled_from(TOKEN_KINDS), min_size=n, max_size=n))
    tokens = tuple(Token(k, *kinds[k - 1][:3], heads[k], kinds[k - 1][3]) for k in range(1, n + 1))
    sentence = ParsedSentence(doc_id="h", tokens=tokens)
    sentence.validate()
    return sentence


@settings(max_examples=300, deadline=None)
@given(dependency_trees())
def test_contraction_matches_networkx_reference(sentence):
    assert extract_syntactic_edges(sentence) == reference_contraction(sentence)


# ---------------------------------------------------------------------------
# synonym layer


def test_synonym_layer_restricted_to_text():
    lex = SynonymLexicon(pairs=frozenset({("famou", "notabl"), ("big", "larg")}))
    assert add_synonym_layer({"famou", "notabl", "big"}, lex) == {("famou", "notabl")}


def test_synonym_layer_never_adds_nodes():
    lex = SynonymLexicon(pairs=frozenset({("big", "larg")}))
    assert add_synonym_layer({"cat", "dog"}, lex) == set()


# ---------------------------------------------------------------------------
# full build


def build_small(valence, emotions, synonyms):
    sentences = [
        heuristic_parse("love is pain"),
        heuristic_parse("love is joy"),
        heuristic_parse("man is not god"),
    ]
    return build_network(sentences, valence, emotions, synonyms, corpus_id="small")


def test_build_counts_repeated_edges(valence, emotions, synonyms):
    sentences = [heuristic_parse("love is weakness")] * 3
    net = build_network(sentences, valence, emotions, synonyms)
    assert net.syntactic_edges[("love", "weak")] == 3


def test_build_merges_stems_across_sentences(valence, emotions, synonyms):
    net = build_small(valence, emotions, synonyms)
    assert set(net.nodes) == {"love", "pain", "joi", "man", "god", "not"}
    assert ("joi", "love") in net.syntactic_edges
    assert ("love", "pain") in net.syntactic_edges


def test_negation_marker_flagged(valence, emotions, synonyms):
    net = build_small(valence, emotions, synonyms)
    assert net.nodes["not"].is_negation_marker
    assert not net.nodes["love"].is_negation_marker


def test_valence_labels_attached(valence, emotions, synonyms):
    net = build_small(valence, emotions, synonyms)
    assert net.nodes["love"].valence_label == "positive"
    assert net.nodes["pain"].valence_label == "negative"
    assert net.nodes["man"].valence_label == "unrated"


def test_emotions_attached(valence, emotions, synonyms):
    net = build_small(valence, emotions, synonyms)
    assert "joy" in net.nodes["joi"].emotions


def test_empty_corpus_rejected(valence, emotions, synonyms):
    with pytest.raises(ValueError):
        build_network([], valence, emotions, synonyms)


def test_empty_generator_rejected(valence, emotions, synonyms):
    with pytest.raises(ValueError, match="^no sentences$"):
        build_network(iter([]), valence, emotions, synonyms)


def test_build_from_a_generator_equals_build_from_the_list(valence, emotions, synonyms):
    texts = ["love is pain", "love is joy", "love loves love", "man is not god", "love is joy"]
    sentences = [heuristic_parse(t) for t in texts]
    from_list = build_network(sentences, valence, emotions, synonyms, corpus_id="g")
    from_generator = build_network((heuristic_parse(t) for t in texts), valence, emotions, synonyms,
                                   corpus_id="g")
    assert from_generator == from_list
    assert list(from_generator.syntactic_edges.items()) == list(from_list.syntactic_edges.items())
    assert from_list.provenance["sentence_count"] == 5
    assert from_list.provenance["edgeless_sentences"] == 1


@pytest.mark.parametrize("n_docs", [7, 2], ids=["uneven chunks", "fewer documents than workers"])
def test_count_corpus_does_not_depend_on_the_worker_count(tmp_path, workers, n_docs):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(FORKED_CORPUS.splitlines(keepends=True)[:n_docs]), encoding="utf-8")
    results = []
    for k in (1, 2, 3):
        workers(k)
        counts, ingest_stats = count_corpus(corpus, "text", 3)
        results.append((list(counts.edges.items()), counts.sentences, counts.edgeless, ingest_stats))
    assert results[1] == results[0] and results[2] == results[0]
    one_process_stats = Counter()
    one_process = count_edges(parse_documents(read_text_corpus(corpus), 3, one_process_stats))
    assert results[0][:3] == (list(one_process.edges.items()), one_process.sentences,
                              one_process.edgeless)
    assert results[0][3] == {"documents": 0, "dropped_short": 0, "unparsed_sentences": 0,
                             "rejected": 0, **one_process_stats}
    if n_docs == 7:
        assert results[0][3] == {"documents": 6, "dropped_short": 1, "unparsed_sentences": 1,
                                 "rejected": 0}
        assert (results[0][1], results[0][2]) == (11, 1)
        assert dict(results[0][0])[("joi", "love")] == 2  # once in each of two chunks
    assert_no_child_left()


def test_provenance_recorded(valence, emotions, synonyms):
    net = build_network(
        [heuristic_parse("love is weakness")],
        valence, emotions, synonyms,
        corpus_id="c1", config={"seed": 5},
    )
    assert net.provenance["corpus_id"] == "c1"
    assert net.provenance["config"] == {"seed": 5}
    assert len(net.provenance["config_hash"]) == 16


def test_config_hash_depends_on_config(valence, emotions, synonyms):
    sents = [heuristic_parse("love is weakness")]
    a = build_network(sents, valence, emotions, synonyms, config={"seed": 1})
    b = build_network(sents, valence, emotions, synonyms, config={"seed": 2})
    assert a.provenance["config_hash"] != b.provenance["config_hash"]


def test_validate_rejects_dangling_edge():
    net = make_network({("a", "b"): 1})
    net.syntactic_edges[("a", "zz")] = 1
    with pytest.raises(ValueError, match="missing node"):
        net.validate()


def test_summary_counts(valence, emotions, synonyms):
    net = build_small(valence, emotions, synonyms)
    s = summary(net)
    assert s["nodes"] == 6
    assert s["syntactic_edges"] == len(net.syntactic_edges)
    assert s["positive"] + s["negative"] + s["neutral"] + s["unrated"] == 6


# ---------------------------------------------------------------------------
# graph views


def test_aggregate_graph_merges_layers():
    net = make_network({("a", "b"): 1}, synonym={("b", "c")})
    g = net.aggregate_graph()
    assert set(g.edges()) == {("a", "b"), ("b", "c")}


def test_layer_graphs_keep_all_nodes():
    net = make_network({("a", "b"): 1}, synonym={("b", "c")})
    syn = net.layer_graph("synonym")
    assert set(syn.nodes()) == {"a", "b", "c"}
    assert set(syn.edges()) == {("b", "c")}
    assert set(net.layer_graph("syntactic").edges()) == {("a", "b")}


def stem_neighbours(graph) -> dict[str, set[str]]:
    """An indexed graph's neighbour ids as stem sets, keyed in id order."""
    stems, nbrs = graph
    return {stems[u]: {stems[v] for v in ids} for u, ids in enumerate(nbrs)}


def test_graph_views_built_once_and_frozen():
    net = make_network({("a", "b"): 1}, synonym={("b", "c")})
    for view in ("aggregate", "syntactic", "synonym"):
        index = net.indexed(view)
        assert net.indexed(view) is index
        with pytest.raises(AttributeError):
            index.nbrs = ((2,), (), (0,))
        with pytest.raises(TypeError):
            index.nbrs[0] = (2,)
        assert index.stems == ("a", "b", "c")
    assert net.indexed() is net.indexed("aggregate")
    assert net.indexed() is not net.indexed("syntactic")
    # one cache, keyed by view
    assert [f.name for f in dataclasses.fields(net) if not f.init] == ["_indexed"]
    assert list(net._indexed) == ["aggregate", "syntactic", "synonym"]


def test_adjacency_views():
    net = make_network({("b", "c"): 1}, synonym={("a", "b"), ("b", "c")})
    net.nodes["d"] = Concept("unrated", None, frozenset())  # isolated
    assert stem_neighbours(net.indexed()) == {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": set()}
    assert stem_neighbours(net.indexed("syntactic")) == {"a": set(), "b": {"c"}, "c": {"b"}, "d": set()}
    assert stem_neighbours(net.indexed("synonym")) == {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": set()}
    with pytest.raises(ValueError, match="unknown layer"):
        net.indexed("semantic")
    assert net.indexed().nbrs == ((1,), (0, 2), (1,), ())
    assert net.indexed("syntactic").nbrs == ((), (2,), (1,), ())
    assert net.indexed("synonym").nbrs == ((1,), (0, 2), (1,), ())
    for view in ("aggregate", "syntactic", "synonym"):
        stems, nbrs = net.indexed(view)
        assert stems == ("a", "b", "c", "d")
        assert all(type(ids) is tuple and list(ids) == sorted(ids) for ids in nbrs)
    # any nodes and edges: ids in sorted-stem order, whatever the input order;
    # a pair in two collections, or given twice, is one neighbour
    assert indexed(["z", "m", "a", "m"], [("z", "a")], [("a", "z")]) == (("a", "m", "z"), ((2,), (), (0,)))
    with pytest.raises(KeyError):
        indexed(["a"], [("a", "b")])  # an edge names only given nodes


node_pairs = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] < p[1]),
                     max_size=20)


@settings(max_examples=100, deadline=None)
@given(node_pairs, node_pairs, st.integers(0, 3))
def test_each_view_equals_brute_force_neighbour_sets(syntactic, synonym, isolated):
    net = make_network({(f"n{a}", f"n{b}"): 1 for a, b in syntactic},
                       synonym={(f"n{a}", f"n{b}") for a, b in synonym})
    for k in range(isolated):
        net.nodes[f"z{k}"] = Concept("unrated", None, frozenset())
    layers = {"aggregate": [*net.syntactic_edges, *net.synonym_edges],
              "syntactic": list(net.syntactic_edges), "synonym": list(net.synonym_edges)}
    for view, pairs in layers.items():
        expected = {s: {b for a, b in pairs if a == s} | {a for a, b in pairs if b == s}
                    for s in sorted(net.nodes)}
        graph = net.indexed(view)
        assert graph.stems == tuple(expected)
        assert stem_neighbours(graph) == expected
        assert all(list(ids) == sorted(ids) for ids in graph.nbrs)


@pytest.mark.parametrize("nodes, stem, expected", [
    (["b", "d", "a"], "a", 0),
    (["b", "d", "a"], "d", 2),
    (["b", "d", "a"], "c", None),
    (["b", "d", "a"], "e", None),
    (["b", "d", "a"], "", None),
    ([], "a", None),
], ids=["first", "last", "miss between", "miss after", "miss before", "empty graph"])
def test_id_of_looks_up_a_stem(nodes, stem, expected):
    graph = indexed(nodes)
    if expected is None:
        with pytest.raises(KeyError, match=f"unknown node {stem!r}"):
            graph.id_of(stem)
    else:
        assert graph.id_of(stem) == expected and graph.stems[expected] == stem


def test_networkx_views_built_anew_from_the_adjacency():
    net = make_network({("b", "c"): 1}, synonym={("a", "b")})
    g = net.aggregate_graph()
    assert g is not net.aggregate_graph()
    assert {s: set(g[s]) for s in g} == stem_neighbours(net.indexed())
    for layer in ("syntactic", "synonym"):
        h = net.layer_graph(layer)
        assert {s: set(h[s]) for s in h} == stem_neighbours(net.indexed(layer))


def test_unknown_layer_rejected():
    net = make_network({("a", "b"): 1})
    with pytest.raises(ValueError):
        net.layer_graph("semantic")


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip(valence, emotions, synonyms):
    net = build_small(valence, emotions, synonyms)
    again = network_from_json(network_to_json(net))
    assert again == net


def test_json_deterministic(valence, emotions, synonyms):
    a = network_to_json(build_small(valence, emotions, synonyms))
    b = network_to_json(build_small(valence, emotions, synonyms))
    assert a == b


def test_json_is_sorted(valence, emotions, synonyms):
    payload = json.loads(network_to_json(build_small(valence, emotions, synonyms)))
    stems = [n["stem"] for n in payload["nodes"]]
    assert stems == sorted(stems)
    assert payload["syntactic_edges"] == sorted(payload["syntactic_edges"])


def test_invalid_json_rejected():
    with pytest.raises(ValueError, match="invalid network file"):
        network_from_json('{"nodes": [{"stem": "a"}]}')


def test_graphml_roundtrip(tmp_path, valence, emotions, synonyms):
    net = build_network(
        [heuristic_parse("love is weakness"), heuristic_parse("man is not god")],
        valence, emotions, synonyms, corpus_id="g",
    )
    net.synonym_edges.add(("love", "weak"))  # overlapping layers survive
    path = tmp_path / "net.graphml"
    write_graphml(net, path)
    again = read_graphml(path)
    assert again.syntactic_edges == net.syntactic_edges
    assert again.synonym_edges == net.synonym_edges
    assert again.nodes == net.nodes
    assert again.provenance == net.provenance


def reference_write_graphml(net: MultiplexLexicalNetwork, path) -> None:
    """The networkx writer that the stdlib one replaced; both must give the
    same bytes (except for an int valence_score, see below)."""
    g = nx.Graph()
    g.graph["provenance"] = json.dumps(net.provenance, sort_keys=True)
    for s in sorted(net.nodes):
        c = net.nodes[s]
        g.add_node(
            s,
            valence_label=c.valence_label,
            valence_score=-999.0 if c.valence_score is None else c.valence_score,
            emotions=",".join(sorted(c.emotions)),
            is_negation_marker=c.is_negation_marker,
        )
    for (a, b), count in sorted(net.syntactic_edges.items()):
        g.add_edge(a, b, layer="syntactic", count=count)
    for a, b in sorted(net.synonym_edges):
        if g.has_edge(a, b):
            g[a][b]["layer"] = "syntactic+synonym"
        else:
            g.add_edge(a, b, layer="synonym", count=0)
    nx.write_graphml(g, str(path))


def _graphml_bytes(writer, net) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.graphml"
        writer(net, path)
        return path.read_bytes()


# characters ElementTree escapes in text or attributes, other whitespace and non-ASCII
ODD_TEXT = st.text(st.sampled_from("ab&<>\"'\t\r\n ,éß日"), max_size=6)


@st.composite
def graphml_networks(draw) -> MultiplexLexicalNetwork:
    """Valid networks with odd stems, float or missing scores (never
    -999.0, which GraphML writes for a missing one), isolated nodes and
    layers that may overlap; possibly no nodes or no edges."""
    stems = sorted(draw(st.sets(ODD_TEXT, max_size=8)))
    pairs = [(a, b) for i, a in enumerate(stems) for b in stems[i + 1 :]]
    nodes = {
        s: Concept(
            valence_label=draw(st.sampled_from(sorted(_VALENCE_LABELS))),
            valence_score=draw(st.none() | st.floats(allow_nan=False, allow_infinity=False)
                               .filter(lambda x: x != -999.0)),
            emotions=frozenset(draw(st.sets(ODD_TEXT, max_size=3))),
            is_negation_marker=draw(st.booleans()),
        )
        for s in stems
    }
    syntactic = {p: draw(st.integers(1, 10**12)) for p in pairs if draw(st.booleans())}
    synonym = {p for p in pairs if draw(st.booleans())}
    provenance = {draw(ODD_TEXT): draw(ODD_TEXT | st.integers()) for _ in range(draw(st.integers(0, 3)))}
    net = MultiplexLexicalNetwork(nodes, syntactic, synonym, provenance)
    net.validate()
    return net


# a star whose centre stem needs escaping, as an edge's source and as its target
STAR_CENTRE = 'a&"<b'


@settings(max_examples=300, deadline=None)
@given(graphml_networks())
@example(make_network({(STAR_CENTRE, "x"): 2, ("&<", STAR_CENTRE): 1, (STAR_CENTRE, "z\n"): 3},
                      {(STAR_CENTRE, "x"), (STAR_CENTRE, "é")},
                      emotions_by_stem={STAR_CENTRE: {"joy", "<fear>"}}))
def test_graphml_bytes_match_networkx_reference(net):
    assert _graphml_bytes(write_graphml, net) == _graphml_bytes(reference_write_graphml, net)


@pytest.mark.parametrize("syntactic, synonym, isolated", [
    ({}, set(), set()),  # empty network: only the graph key
    ({}, set(), {"lone"}),  # nodes but no edges: no edge keys
    ({}, {("joy", "love")}, set()),  # synonym-only edge, count 0
    ({("joy", "love"): 2, ("hope", "joy"): 1}, {("joy", "love"), ("hope", "love")}, {"z"}),
])
def test_graphml_bytes_match_networkx_reference_examples(syntactic, synonym, isolated):
    net = make_network(syntactic, synonym)
    for s in isolated:
        net.nodes[s] = Concept("unrated", None, frozenset())
    net.provenance["note"] = 'a <&> "b"\nc'
    assert _graphml_bytes(write_graphml, net) == _graphml_bytes(reference_write_graphml, net)


def test_graphml_writes_int_valence_score_as_double(tmp_path):
    payload = json.loads(_network_file(["joy", "love"], [("joy", "love", 1)]))
    payload["nodes"][0]["valence_score"] = 5
    payload["nodes"][1]["valence_score"] = 2.5
    net = network_from_json(json.dumps(payload))
    text = _graphml_bytes(write_graphml, net).decode("utf-8")
    assert text.count('attr.name="valence_score"') == 1
    assert '<data key="d2">5.0</data>' in text
    # networkx adds a second, `long` valence_score key for the int
    assert _graphml_bytes(reference_write_graphml, net).decode("utf-8").count(
        'attr.name="valence_score"') == 2
    path = tmp_path / "net.graphml"
    path.write_text(text, encoding="utf-8")
    assert read_graphml(path).nodes["joy"].valence_score == 5.0


def reference_read_graphml(path) -> MultiplexLexicalNetwork:
    """The networkx reader that the stdlib one replaced (it did not validate)."""
    g = nx.read_graphml(str(path))
    nodes = {}
    for s, data in g.nodes(data=True):
        score = data.get("valence_score", -999.0)
        nodes[s] = Concept(
            valence_label=data["valence_label"],
            valence_score=None if score == -999.0 else float(score),
            emotions=frozenset(e for e in data.get("emotions", "").split(",") if e),
            is_negation_marker=bool(data.get("is_negation_marker", False)),
        )
    syntactic: dict[tuple[str, str], int] = {}
    synonym: set[tuple[str, str]] = set()
    for a, b, data in g.edges(data=True):
        pair = _ordered(a, b)
        if "syntactic" in data["layer"]:
            syntactic[pair] = int(data.get("count", 1))
        if "synonym" in data["layer"]:
            synonym.add(pair)
    provenance = json.loads(
        g.graph.get("provenance", '{"corpus_id": "graphml", "config": {}, "config_hash": ""}')
    )
    return MultiplexLexicalNetwork(nodes, syntactic, synonym, provenance)


def _as_graphml_holds_it(net: MultiplexLexicalNetwork) -> MultiplexLexicalNetwork:
    """The network a GraphML file can hold: emotions are one comma-joined
    text (a comma splits an emotion, an empty one vanishes, and XML reads
    CR and CRLF as LF)."""
    def emotions(c: Concept) -> frozenset[str]:
        text = ",".join(sorted(c.emotions)).replace("\r\n", "\n").replace("\r", "\n")
        return frozenset(e for e in text.split(",") if e)

    nodes = {s: c._replace(emotions=emotions(c)) for s, c in net.nodes.items()}
    return MultiplexLexicalNetwork(nodes, dict(net.syntactic_edges), set(net.synonym_edges),
                                   net.provenance)


@settings(max_examples=300, deadline=None)
@given(graphml_networks())
def test_graphml_roundtrip_random(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.graphml"
        write_graphml(net, path)
        again = read_graphml(path)
        assert again == _as_graphml_holds_it(net)
        assert again == reference_read_graphml(path)


@pytest.mark.parametrize("old, new, message", [
    ('<data key="d1">positive</data>', '<data key="d1">happy</data>', "valence_label 'happy'"),
    ('<node id="joy">', '<node id="joyful">', "missing node"),
    ('target="love">', 'target="joy">', "self-loop"),
    ('<data key="d1">positive</data>', "", "valence_label None"),
    ('<data key="d4">False</data>', '<data key="d4">maybe</data>', "invalid GraphML file"),
    ('<data key="d5">syntactic</data>', "", "invalid GraphML file"),
    ("</edge>", '</edge><edge source="love" target="joy"><data key="d5">synonym</data></edge>',
     "duplicate edge"),
    ("</graphml>", "", "invalid GraphML file"),
    ('<data key="d2">-999.0</data>', '<data key="d2">nan</data>', "not a finite number"),
    ("<edge ", '<node id="joy"><data key="d1">neutral</data></node><edge ', "duplicate stem"),
    ("<edge ", '<node><data key="d1">neutral</data></node><edge ', "stem has the wrong type: None"),
    ('<data key="d6">2</data>', '<data key="d6">0</data>', "edge count below 1"),
    ('<data key="d6">2</data>', '<data key="d6">-1</data>', "edge count below 1"),
    ('attr.name="count" attr.type="long"', 'attr.name="count" attr.type="double"',
     "edge count has the wrong type: 2.0"),
    ('attr.name="is_negation_marker" attr.type="boolean"',
     'attr.name="is_negation_marker" attr.type="string"', "is_negation_marker has the wrong type: 'False'"),
    ('<data key="d5">syntactic</data>', '<data key="d5">foo</data>', "unknown edge layer 'foo'"),
    ('<data key="d5">syntactic</data>', '<data key="d5">synonyms</data>', "unknown edge layer 'synonyms'"),
    ('<data key="d1">positive</data>', '<data key="d1">positive</data><data key="d1">negative</data>',
     "duplicate <data> for 'valence_label'"),
    ('<data key="d5">syntactic</data>', '<data key="d5">syntactic</data><data key="d5" />',
     "duplicate <data> for 'layer'"),
    ('<data key="d0">', '<data key="d0">{}</data><data key="d0">', "duplicate <data> for 'provenance'"),
    ('<data key="d0">{', '<data key="d0">{"x": NaN, ', "NaN is not strict JSON"),
], ids=["unknown_label", "edge_to_missing_node", "self_loop", "no_label", "bad_boolean",
        "no_layer", "duplicate_edge", "not_xml", "score_nan", "duplicate_node_id", "missing_id",
        "count_0", "count_negative", "count_double", "negation_string", "layer_foo", "layer_plural",
        "duplicate_node_data", "duplicate_edge_data", "duplicate_graph_data", "provenance_nan"])
def test_read_graphml_rejects_invalid_network(tmp_path, old, new, message):
    path = tmp_path / "net.graphml"
    write_graphml(make_network({("joy", "love"): 2}, labels={"joy": "positive"}), path)
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_graphml(path)


def test_read_graphml_rejects_emotions_not_text(tmp_path):
    """An emotions key declared int decodes to an int, which has no emotions to split."""
    path = tmp_path / "net.graphml"
    write_graphml(make_network({("joy", "love"): 2}), path)
    text = path.read_text(encoding="utf-8")
    text = text.replace('attr.name="emotions" attr.type="string"', 'attr.name="emotions" attr.type="int"')
    path.write_text(text.replace('<data key="d3" />', '<data key="d3">5</data>', 1), encoding="utf-8")
    with pytest.raises(ValueError, match="^invalid GraphML file: emotions has the wrong type: 5$"):
        read_graphml(path)


_MUTANT_TYPES = st.sampled_from(["string", "int", "long", "float", "double", "boolean", "date"])
_MUTANT_TEXTS = st.sampled_from([
    "", " ", "0", "1", "-4", "2.5", "-999.0", "nan", "1e999", "True", "false", "positive", "happy",
    "joy,trust", "syntactic", "synonym", "syntactic+synonym", "synonyms", "{}", "[]", '{"a": 1}',
])


@settings(max_examples=300, deadline=None)
@given(graphml_networks(), st.data())
def test_read_graphml_raises_only_value_error(net, data):
    """Files write_graphml wrote, then mutated: key types, data texts, node ids
    and edge ends changed, elements dropped or duplicated. Each either fails
    with ValueError or gives a network that round-trips through JSON."""
    from copy import deepcopy
    from xml.etree import ElementTree

    ns = "{http://graphml.graphdrawing.org/xmlns}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.graphml"
        write_graphml(net, path)
        root = ElementTree.parse(path).getroot()
        for _ in range(data.draw(st.integers(1, 4))):
            parents = {child: parent for parent in root.iter() for child in parent}
            pools = {"type": root.findall(f"{ns}key"), "text": list(root.iter(f"{ns}data")),
                     "id": root.findall(f"{ns}graph/{ns}node") + root.findall(f"{ns}graph/{ns}edge"),
                     "drop": list(parents), "duplicate": list(parents)}
            op = data.draw(st.sampled_from(sorted(pools)))
            if not pools[op]:
                continue
            element = data.draw(st.sampled_from(pools[op]))
            if op == "type":
                element.set("attr.type", data.draw(_MUTANT_TYPES))
            elif op == "text":
                element.text = data.draw(_MUTANT_TEXTS)
            elif op == "id":
                attr = "id" if element.tag == f"{ns}node" else data.draw(st.sampled_from(["source", "target"]))
                value = data.draw(st.sampled_from([*sorted(net.nodes), "zzz", None]))
                if value is None:
                    element.attrib.pop(attr, None)
                else:
                    element.set(attr, value)
            elif op == "drop":
                parents[element].remove(element)
            else:
                siblings = list(parents[element])
                parents[element].insert(siblings.index(element), deepcopy(element))
        ElementTree.ElementTree(root).write(path, encoding="utf-8", xml_declaration=True)
        try:
            again = read_graphml(path)
        except ValueError as exc:
            assert str(exc).startswith("invalid GraphML file: ")
            return
    again.validate()
    assert network_from_json(network_to_json(again)) == again


def test_read_graphml_decodes_data_by_key_name(tmp_path):
    """Keys are looked up by attr.name and attr.type, whatever their ids and order."""
    path = tmp_path / "hand.graphml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="n" for="edge" attr.name="count" attr.type="int" />\n'
        '  <key id="l" for="edge" attr.name="layer" attr.type="string" />\n'
        '  <key id="neg" for="node" attr.name="is_negation_marker" attr.type="boolean" />\n'
        '  <key id="v" for="node" attr.name="valence_label" attr.type="string" />\n'
        '  <key id="s" for="node" attr.name="valence_score" attr.type="float" />\n'
        '  <key id="e" for="node" attr.name="emotions" attr.type="string" />\n'
        '  <graph edgedefault="undirected">\n'
        '    <node id="not"><data key="v">neutral</data><data key="neg">TRUE</data></node>\n'
        '    <node id="joy"><data key="v">positive</data><data key="s">7.5</data>'
        '<data key="e">joy,trust</data><data key="neg">0</data></node>\n'
        '    <edge source="not" target="joy"><data key="l">syntactic+synonym</data>'
        '<data key="n">3</data></edge>\n'
        '  </graph>\n</graphml>\n',
        encoding="utf-8",
    )
    net = read_graphml(path)
    assert net.nodes == {
        "not": Concept("neutral", None, frozenset(), True),
        "joy": Concept("positive", 7.5, frozenset({"joy", "trust"}), False),
    }
    assert net.syntactic_edges == {("joy", "not"): 3} and net.synonym_edges == {("joy", "not")}
    assert net.provenance == {"corpus_id": "graphml", "config": {}, "config_hash": ""}
    assert net == reference_read_graphml(path)


def _network_file(nodes, syntactic, synonym=(), labels=None) -> str:
    labels = labels or {}
    return json.dumps({
        "nodes": [{"stem": s, "valence_label": labels.get(s, "unrated"), "valence_score": None,
                   "emotions": [], "is_negation_marker": False} for s in nodes],
        "syntactic_edges": [list(e) for e in syntactic],
        "synonym_edges": [list(e) for e in synonym],
        "provenance": {},
    })


def test_reversed_pairs_load_ordered_and_rewire_per_layer():
    # a ring stored as (max, min) pairs in both layers
    names = [f"n{i:02d}" for i in range(10)]
    ring = [(max(a, b), min(a, b)) for a, b in zip(names, names[1:] + names[:1])]
    chords = [(names[i + 5], names[i]) for i in range(5)]
    net = network_from_json(_network_file(names, [(a, b, 1) for a, b in ring], chords))
    assert all(a < b for a, b in net.syntactic_edges)
    assert all(a < b for a, b in net.synonym_edges)
    assert len(net.syntactic_edges) == 10 and len(net.synonym_edges) == 5

    from tfmn.stats import configuration_rewire

    null = configuration_rewire(net, 3)
    assert len(null.syntactic_edges) == 10 and len(null.synonym_edges) == 5
    for layer in ("syntactic", "synonym"):
        assert dict(null.layer_graph(layer).degree()) == dict(net.layer_graph(layer).degree())


@pytest.mark.parametrize("syntactic, synonym", [
    ([("a", "b", 1), ("b", "a", 2)], []),
    ([("a", "b", 1), ("a", "b", 1)], []),
    ([("a", "b", 1)], [("b", "c"), ("c", "b")]),
])
def test_duplicate_pair_in_a_layer_rejected(syntactic, synonym):
    with pytest.raises(ValueError, match="duplicate"):
        network_from_json(_network_file(["a", "b", "c"], syntactic, synonym))


@pytest.mark.parametrize("syntactic, synonym", [
    ({("a", "b"): 1, ("b", "a"): 2}, set()),
    ({("a", "b"): 1}, {("b", "c"), ("c", "b")}),
], ids=["syntactic", "synonym"])
def test_pair_in_both_orientations_fails_validate(syntactic, synonym):
    """A hand-built layer holding one pair both ways is refused with the readers' message."""
    nodes = {s: Concept("unrated", None, frozenset()) for s in "abc"}
    net = MultiplexLexicalNetwork(nodes, syntactic, synonym, {})
    with pytest.raises(ValueError, match="^duplicate edge: a pair is listed twice in one layer$"):
        net.validate()
    MultiplexLexicalNetwork(nodes, {("b", "a"): 1}, {("c", "b")}, {}).validate()  # one orientation


def test_same_pair_in_both_layers_allowed():
    net = network_from_json(_network_file(["a", "b"], [("b", "a", 1)], [("a", "b")]))
    assert set(net.syntactic_edges) == net.synonym_edges == {("a", "b")}


@pytest.mark.parametrize("field, value", [
    ("provenance", []), ("count", "x"), ("count", 0), ("count", True), ("count", 1.0),
    ("valence_score", "abc"), ("valence_score", True), ("emotions", "joy"), ("emotions", [1]),
    ("is_negation_marker", "yes"), ("is_negation_marker", 1), ("stem", 7), ("valence_label", []),
])
def test_field_of_wrong_type_rejected(field, value):
    payload = json.loads(_network_file(["joy", "love"], [("joy", "love", 1)]))
    if field == "provenance":
        payload["provenance"] = value
    elif field == "count":
        payload["syntactic_edges"][0][2] = value
    else:
        payload["nodes"][1][field] = value
    with pytest.raises(ValueError, match="invalid network file"):
        network_from_json(json.dumps(payload))


def test_field_types_accepted():
    payload = json.loads(_network_file(["joy", "love"], [("joy", "love", 3)]))
    payload["nodes"][0].update(valence_score=7, emotions=["joy", "trust"], is_negation_marker=True)
    payload["nodes"][1]["valence_score"] = 2.5
    net = network_from_json(json.dumps(payload))
    assert net.nodes["joy"].valence_score == 7 and net.nodes["love"].valence_score == 2.5
    assert net.nodes["joy"].emotions == {"joy", "trust"} and net.syntactic_edges == {("joy", "love"): 3}


@pytest.mark.parametrize("score, message", [
    # a JSON constant is refused while parsing, wherever it stands
    *(pytest.param(c, f"{c} is not strict JSON", id=c) for c in ("NaN", "Infinity", "-Infinity")),
    pytest.param("1" + "0" * 400, "valence_score is not a finite number", id="int_beyond_double"),
    pytest.param("1e400", "valence_score is not a finite number", id="float_beyond_double"),
])
def test_valence_score_not_finite_rejected(score, message):
    text = _network_file(["joy", "love"], [("joy", "love", 1)])
    text = text.replace('"valence_score": null', f'"valence_score": {score}', 1)
    with pytest.raises(ValueError, match=f"^invalid network file: {message}"):
        network_from_json(text)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_provenance_rejected(constant):
    text = _network_file(["joy", "love"], [("joy", "love", 1)])
    text = text.replace('"provenance": {}', f'"provenance": {{"x": {constant}}}', 1)
    assert constant in text
    with pytest.raises(ValueError, match=f"^invalid network file: {constant} is not strict JSON"):
        network_from_json(text)


def test_network_written_as_strict_json(tmp_path):
    net = make_network({("joy", "love"): 1})
    net.provenance["x"] = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        network_to_json(net)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_graphml(net, tmp_path / "net.graphml")


def reference_network_json(net: MultiplexLexicalNetwork) -> str:
    """The payload network_to_json writes, through json.dumps and its
    pure-Python indenting encoder."""
    payload = {
        "nodes": [
            {
                "stem": s,
                "valence_label": c.valence_label,
                "valence_score": c.valence_score,
                "emotions": sorted(c.emotions),
                "is_negation_marker": c.is_negation_marker,
            }
            for s, c in sorted(net.nodes.items())
        ],
        "syntactic_edges": [[a, b, count] for (a, b), count in sorted(net.syntactic_edges.items())],
        "synonym_edges": [[a, b] for a, b in sorted(net.synonym_edges)],
        "provenance": net.provenance,
    }
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)


finite_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | ODD_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(graphml_networks(), st.data())
def test_network_json_matches_json_dumps(net, data):
    """Int scores too, which the reader accepts, and nested provenance."""
    for s, c in net.nodes.items():
        if data.draw(st.booleans()):
            net.nodes[s] = c._replace(valence_score=data.draw(st.integers()))
    net.provenance.update(data.draw(st.dictionaries(ODD_TEXT, finite_json, max_size=3)))
    assert network_to_json(net) == reference_network_json(net)


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_network_json_refuses_non_finite_score(score):
    net = make_network({("joy", "love"): 1})
    net.nodes["joy"] = net.nodes["joy"]._replace(valence_score=score)
    with pytest.raises(ValueError, match="not JSON compliant"):
        network_to_json(net)


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_graphml_refuses_non_finite_score_before_writing(score, tmp_path):
    net = make_network({("joy", "love"): 1})
    net.nodes["joy"] = net.nodes["joy"]._replace(valence_score=score)
    path = tmp_path / "net.graphml"
    message = f"^Out of range float values are not JSON compliant: {score!r}$"
    with pytest.raises(ValueError, match=message):
        write_graphml(net, path)
    assert not path.exists()


@pytest.mark.parametrize("score", [-999.0, -999])
def test_graphml_refuses_its_missing_score_mark_before_writing(score, tmp_path):
    """GraphML writes -999.0 for a missing score, so a real one would read back as None."""
    net = make_network({("joy", "love"): 1})
    net.nodes["joy"] = net.nodes["joy"]._replace(valence_score=score)
    path = tmp_path / "net.graphml"
    with pytest.raises(ValueError, match="^node 'joy': valence_score -999.0 is GraphML's mark of a missing score$"):
        write_graphml(net, path)
    assert not path.exists()
    assert network_from_json(network_to_json(net)).nodes["joy"].valence_score == score


def test_hand_built_network_round_trips_with_its_keys_as_stems(tmp_path):
    """A node's stem is its key alone: both writers read the key, so a
    hand-built network reads back equal from JSON and from GraphML."""
    assert Concept._fields == ("valence_label", "valence_score", "emotions", "is_negation_marker")
    net = MultiplexLexicalNetwork(
        {"a": Concept("positive", 7.5, frozenset({"joy"})), "b": Concept("unrated", None, frozenset(), True)},
        {("a", "b"): 2}, {("a", "b")}, {"corpus_id": "hand"})
    net.validate()
    assert network_from_json(network_to_json(net)) == net
    write_graphml(net, tmp_path / "net.graphml")
    assert read_graphml(tmp_path / "net.graphml") == net


def test_duplicate_stem_rejected():
    text = _network_file(["joy", "love", "joy"], [("joy", "love", 1)])
    with pytest.raises(ValueError, match="duplicate stem"):
        network_from_json(text)


def test_unknown_valence_label_rejected():
    text = _network_file(["joy", "love"], [("joy", "love", 1)], labels={"love": "happy"})
    with pytest.raises(ValueError, match="valence_label 'happy'"):
        network_from_json(text)


def test_deeply_nested_file_rejected():
    with pytest.raises(ValueError, match="invalid network file"):
        network_from_json("[" * 200_000)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
stems = st.sampled_from(["joy", "love", "fear"])
nodes = st.fixed_dictionaries({
    "stem": stems | json_values,
    "valence_label": st.sampled_from(sorted(_VALENCE_LABELS)) | json_values,
    "valence_score": st.none() | st.floats() | json_values,
    "emotions": st.lists(st.sampled_from(["joy", "trust"])) | json_values,
    "is_negation_marker": st.booleans() | json_values,
})
edges = st.lists(st.lists(stems | st.integers(-1, 3) | json_values, min_size=2, max_size=3) | json_values,
                 max_size=4)
network_payloads = json_values | st.fixed_dictionaries({
    "nodes": st.lists(nodes | json_values, max_size=4) | json_values,
    "syntactic_edges": edges | json_values,
    "synonym_edges": edges | json_values,
    "provenance": st.dictionaries(st.text(max_size=4), json_values, max_size=2) | json_values,
})


@settings(max_examples=300, deadline=None)
@given(network_payloads)
def test_network_from_json_raises_only_value_error(payload):
    try:
        net = network_from_json(json.dumps(payload))
    except ValueError:
        return
    net.validate()
    assert network_from_json(network_to_json(net)) == net
