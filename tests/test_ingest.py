import hashlib
import random
import re
import tempfile
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tfmn.ingest import (
    ConlluError,
    ParsedSentence,
    RawDocument,
    Token,
    UnparsedSentence,
    clean_document,
    filter_short,
    heuristic_parse,
    iter_conllu,
    parse_conllu,
    parse_documents,
    read_text_corpus,
    split_sentences,
    to_conllu,
    word_classes,
)
from tfmn.build import _is_content

from conllu_reference import reference_iter_conllu


def doc(text, doc_id="d1"):
    return RawDocument(id=doc_id, text=text)


# ---------------------------------------------------------------------------
# cleaning


def test_hashtag_character_stripped():
    assert clean_document(doc("#science rocks")).text == "science rocks"


def test_url_removed():
    assert clean_document(doc("see https://t.co/x now")).text == "see now"


def test_mention_removed():
    assert clean_document(doc("thanks @someone for this")).text == "thanks for this"


def test_emoji_removed():
    assert clean_document(doc("great \U0001F600 day")).text == "great day"


def test_empty_text():
    assert clean_document(doc("")).text == ""


@given(st.text(max_size=120))
def test_clean_idempotent(text):
    once = clean_document(doc(text))
    assert clean_document(once) == once


@pytest.mark.parametrize("text, cleaned", [
    ("@#abc", ""),  # '#' removed after the mention pass left "@abc"
    ("@\U0001F600bob hi", "hi"),  # a pictograph inside a mention
    ("http#://x.org y", "y"),  # '#' inside a URL scheme
    ("@\U000f00000", ""),  # a private-use character inside a mention
])
def test_clean_joined_mentions_and_urls(text, cleaned):
    once = clean_document(doc(text))
    assert once.text == cleaned
    assert clean_document(once) == once


def reference_clean(text: str) -> str:
    """clean_document's text as the per-character pictograph rule gives it."""
    out = []
    for ch in text:
        if ord(ch) >= 0x2190 and unicodedata.category(ch) in ("So", "Sk", "Cs", "Co"):
            continue
        if 0x1F000 <= ord(ch) <= 0x1FFFF or 0x2600 <= ord(ch) <= 0x27BF:
            continue
        out.append(ch)
    text = "".join(out).replace("#", "")
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text)
    text = re.sub(r"@\w+", " ", text)
    return re.sub(r"\s+", " ", text).strip()


# the rule's range bounds, a lone surrogate, private use, symbols kept and removed,
# and code points that only the emoji ranges remove (Ps, unassigned); then every
# str.isspace() code point, which str.split splits at, and two that it does not
EDGE_CODE_POINTS = ["\u218f", "\u2190", "\u2600", "\u27bf", "\U0001f000", "\U0001ffff", "\ud800",
                    "\u2191", "\u27c0", "\U00020000", "\ue000", "\u2318", "\u00a9", "\u2122",
                    "\u2768", "\U0001f0ff",
                    *"\x09\x0a\x0b\x0c\x0d\x1c\x1d\x1e\x1f\x20\x85\xa0\u1680",
                    *map(chr, range(0x2000, 0x200b)), "\u2028", "\u2029", "\u202f", "\u205f",
                    "\u3000", "\u200b", "\ufeff"]


@pytest.mark.parametrize("ch", EDGE_CODE_POINTS)
def test_clean_edge_code_points(ch):
    for text in (ch, f"a{ch}b", f"#{ch}x @y{ch}z www.{ch}"):
        assert clean_document(doc(text)).text == reference_clean(text)


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=()))
       | st.text(st.sampled_from([*EDGE_CODE_POINTS, "a", " ", "#", "@", "."])))
def test_clean_matches_per_character_rule(text):
    assert clean_document(doc(text)).text == reference_clean(text)


# ---------------------------------------------------------------------------
# filtering


def test_short_documents_dropped():
    kept, dropped = filter_short([doc("ok"), doc("a b c", "d2")], min_words=3)
    assert [d.id for d in kept] == ["d2"]
    assert dropped == 1


def test_three_word_boundary_kept():
    kept, dropped = filter_short([doc("a b c")], min_words=3)
    assert len(kept) == 1 and dropped == 0


def test_min_words_one_keeps_nonempty():
    kept, dropped = filter_short([doc("hi"), doc("x y", "d2")], min_words=1)
    assert len(kept) == 2 and dropped == 0


def test_filter_idempotent():
    docs = [doc("a b c d"), doc("x", "d2"), doc("p q r", "d3")]
    once, _ = filter_short(docs, 3)
    twice, dropped = filter_short(once, 3)
    assert twice == once and dropped == 0


# ---------------------------------------------------------------------------
# CoNLL-U


MINIMAL = """# sent_id = 1
1\tcat\tcat\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsat\tsit\tVERB\t_\t_\t0\troot\t_\t_

"""


def test_parse_minimal_block(tmp_path):
    path = tmp_path / "a.conllu"
    path.write_text(MINIMAL, encoding="utf-8")
    sentences, rejections = parse_conllu(path)
    assert not rejections
    assert len(sentences) == 1
    sent = sentences[0]
    assert [t.surface for t in sent.tokens] == ["cat", "sat"]
    assert sent.tokens[1].head == 0
    assert sent.tokens[0].lemma == "cat"


def test_out_of_range_head_rejected(tmp_path):
    bad = "1\ta\ta\tNOUN\t_\t_\t9\tnsubj\t_\t_\n2\tb\tb\tVERB\t_\t_\t0\troot\t_\t_\n3\tc\tc\tNOUN\t_\t_\t2\tobj\t_\t_\n\n"
    path = tmp_path / "a.conllu"
    path.write_text(bad, encoding="utf-8")
    sentences, rejections = parse_conllu(path)
    assert not sentences
    assert len(rejections) == 1
    assert "out of range" in rejections[0]


def test_cyclic_heads_rejected(tmp_path):
    bad = "1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_\n2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_\n3\tc\tc\tVERB\t_\t_\t0\troot\t_\t_\n\n"
    path = tmp_path / "a.conllu"
    path.write_text(bad, encoding="utf-8")
    sentences, rejections = parse_conllu(path)
    assert not sentences and rejections


def test_comments_and_newdoc(tmp_path):
    text = "# newdoc id = tweet42\n" + MINIMAL
    path = tmp_path / "a.conllu"
    path.write_text(text, encoding="utf-8")
    sentences, _ = parse_conllu(path)
    assert sentences[0].doc_id == "tweet42"


def test_multiword_token_lines_skipped(tmp_path):
    text = (
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\tdo\tAUX\t_\t_\t2\taux\t_\t_\n"
        "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n\n"
    )
    path = tmp_path / "a.conllu"
    path.write_text(text, encoding="utf-8")
    sentences, _ = parse_conllu(path)
    assert [t.surface for t in sentences[0].tokens] == ["do", "go"]


def test_wrong_field_count_is_file_error(tmp_path):
    path = tmp_path / "a.conllu"
    path.write_text("1\tcat\tcat\n\n", encoding="utf-8")
    with pytest.raises(ConlluError):
        parse_conllu(path)


def test_conllu_roundtrip(tmp_path):
    path = tmp_path / "a.conllu"
    path.write_text("# newdoc id = d9\n" + MINIMAL, encoding="utf-8")
    sentences, _ = parse_conllu(path)
    path2 = tmp_path / "b.conllu"
    path2.write_text("".join(to_conllu(s) for s in sentences), encoding="utf-8")
    again, rejections = parse_conllu(path2)
    assert not rejections
    assert again == sentences


def reference_validate(sentence: ParsedSentence) -> None:
    """ParsedSentence.validate with a fresh head walk from every token."""
    n = len(sentence.tokens)
    for pos, tok in enumerate(sentence.tokens, start=1):
        if tok.index != pos:
            raise ValueError(f"non-contiguous token index {tok.index} at position {pos}")
        if not 0 <= tok.head <= n:
            raise ValueError(f"head {tok.head} out of range for {n}-token sentence")
    roots = [t for t in sentence.tokens if t.head == 0]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {len(roots)}")
    for tok in sentence.tokens:
        seen = set()
        cur = tok.index
        while cur != 0:
            if cur in seen:
                raise ValueError(f"cycle in head links at token {tok.index}")
            seen.add(cur)
            cur = sentence.tokens[cur - 1].head


@st.composite
def head_links(draw) -> list[int]:
    """Heads into the sentence with zero, one or two roots, so that cycles are
    common, and now and then a head out of range."""
    n = draw(st.integers(1, 9))
    heads = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        heads[draw(st.integers(0, n - 1))] = 0
    if draw(st.integers(0, 9)) == 0:
        heads[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, n + 1]))
    return heads


def _verdict(check, sentence: ParsedSentence) -> str | None:
    try:
        check(sentence)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=500, deadline=None)
@given(head_links())
@example([]).via("no tokens")
@example([2, 1, 0]).via("two-cycle before the root")
@example([0, 3, 4, 3]).via("tail into a cycle")
@example([0, 2]).via("self-loop")
@example([3, 0, 2, 0]).via("two roots")
def test_validate_matches_per_token_walk(heads):
    tokens = tuple(Token(k, "w", "w", "NOUN", h, "dep") for k, h in enumerate(heads, start=1))
    sentence = ParsedSentence("h", tokens)
    assert _verdict(ParsedSentence.validate, sentence) == _verdict(reference_validate, sentence)


# ---------------------------------------------------------------------------
# heuristic parser


def arcs(sentence: ParsedSentence):
    return {(t.surface, t.deprel, sentence.tokens[t.head - 1].surface if t.head else None)
            for t in sentence.tokens}


def test_copula_sentence():
    parsed = heuristic_parse("love is weakness")
    assert ("weakness", "root", None) in arcs(parsed)
    assert ("love", "nsubj", "weakness") in arcs(parsed)
    assert ("is", "cop", "weakness") in arcs(parsed)


def test_prepositional_sentence():
    parsed = heuristic_parse("the cat sat on the chair")
    a = arcs(parsed)
    assert ("sat", "root", None) in a
    assert ("cat", "nsubj", "sat") in a
    assert ("chair", "obl", "sat") in a
    assert ("on", "case", "chair") in a
    assert ("the", "det", "cat") in a


def test_negated_copula_chains_through_negation():
    parsed = heuristic_parse("man is not god")
    a = arcs(parsed)
    assert ("god", "root", None) in a
    assert ("not", "advmod", "god") in a
    assert ("man", "nsubj", "not") in a


def test_lemma_table_applied():
    parsed = heuristic_parse("the cat sat on the chair")
    sat = next(t for t in parsed.tokens if t.surface == "sat")
    assert sat.lemma == "sit"


def test_heuristic_trees_are_pinned(data_dir):
    """Every tree the parser gives for the bundled synthetic corpus and the
    benchmark paragraphs, parsed as build and benchmark parse them, so that a
    changed tree fails here and not only in the network bytes."""
    sentences = list(parse_documents(read_text_corpus(data_dir / "synthetic" / "corpus.txt"), 3,
                                     Counter()))
    for path in sorted((data_dir / "benchmark").glob("*.txt")):
        sentences += parse_documents([RawDocument(path.stem, path.read_text(encoding="utf-8"))], 1,
                                     Counter())
    digest = hashlib.sha256("".join(map(to_conllu, sentences)).encode("utf-8")).hexdigest()
    assert (len(sentences), digest) == (
        1190, "c57bcbd105a8d71a432c1c5cd12db94cc0307b95b51947253d6666d6e165947d")


def test_heuristic_trees_are_pinned_on_random_sentences(data_dir):
    """Seeded random sentences over every function-word list, the copulas,
    pronouns, negations, contractions and a few content words: every tree,
    upos included, and every UnparsedSentence message is pinned. In each tree
    the function words are leaves: no token that contraction removes has a
    dependant."""
    lists = ("determiners", "prepositions", "auxiliaries", "conjunctions", "copulas", "negations",
             "pronouns")
    words = {name: sorted((data_dir / f"{name}.txt").read_text(encoding="utf-8").split())
             for name in lists}
    content = ["love", "science", "women", "math", "sat", "Girls", "HARD", "chair", "fun", "ate", ",", "?!"]
    pools = [words[name] for name in lists[:4]] + [
        words["copulas"] + words["negations"] + ["can't", "won't", "isn't", "don't", "n't", "cannot"],
        words["pronouns"], content, content,
    ]
    rng = random.Random(15)
    negations = word_classes().negations
    blocks, unparsed = [], 0
    for _ in range(20_000):
        sentence = " ".join(rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 9)))
        try:
            parsed = heuristic_parse(sentence)
        except UnparsedSentence as exc:
            blocks.append(f"{exc}\n")
            unparsed += 1
            continue
        blocks.append(to_conllu(parsed))
        for tok in parsed.tokens:
            assert not tok.head or _is_content(parsed.tokens[tok.head - 1], negations), sentence
    digest = hashlib.sha256("".join(blocks).encode("utf-8")).hexdigest()
    assert (unparsed, digest) == (
        10489, "86d329809000d0545522d10798e1acc4f56e430d994d029c65366e30a79cff89")


def test_single_word_unparsed():
    with pytest.raises(UnparsedSentence):
        heuristic_parse("wow")


def test_only_function_words_unparsed():
    with pytest.raises(UnparsedSentence):
        heuristic_parse("the of and")


def test_parse_output_is_valid_tree():
    for sentence in [
        "complex systems consist of many interacting components",
        "she doesn't like chemistry",
        "the whole is more than the sum of its parts",
        "scientists use models and data",
    ]:
        heuristic_parse(sentence).validate()


# ---------------------------------------------------------------------------
# corpus reading


def test_sentence_split():
    assert split_sentences("One two. Three four! Five?") == ["One two.", "Three four!", "Five?"]


def test_read_text_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("d1\thello world\nd2\tsecond doc\n", encoding="utf-8")
    docs = read_text_corpus(path)
    assert [d.id for d in docs] == ["d1", "d2"]


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("d1\ta\nd1\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        read_text_corpus(path)


conllu_fields = (st.text(max_size=4) | st.integers(-1, 12).map(str)
                 | st.sampled_from(["_", "NOUN", "VERB", "root", "nsubj", "1-2", "1.1"]))
token_lines = st.tuples(
    st.integers(1, 4).map(str), st.sampled_from(["cat", "sat", "not", "the"]), st.just("_"),
    st.sampled_from(["NOUN", "VERB", "PART", "DET"]), st.just("_"), st.just("_"),
    st.integers(0, 4).map(str), st.sampled_from(["root", "nsubj", "det", "advmod"]),
    st.just("_"), st.just("_"),
).map("\t".join)
conllu_lines = (st.text() | st.lists(conllu_fields, min_size=8, max_size=11).map("\t".join)
                | token_lines | st.sampled_from(["", "# newdoc id = x", "# sent_id = 1", "#"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(conllu_lines, max_size=12) | st.lists(token_lines | st.just(""), max_size=12))
def test_iter_conllu_raises_only_value_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.conllu"
        path.write_text("\n".join(lines), encoding="utf-8")
        rejections = []
        try:
            sentences = list(iter_conllu(path, rejections))
        except ValueError:  # ConlluError included
            return
    for sent in sentences:
        sent.validate()


def _read_all(reader, path):
    """(sentences, rejections, error text) of one CoNLL-U reader over a file."""
    sentences, rejections = [], []
    try:
        for sent in reader(path, rejections):
            sentences.append(sent)
    except ValueError as exc:
        return sentences, rejections, f"{type(exc).__name__}: {exc}"
    return sentences, rejections, None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(token_lines | st.sampled_from(["", "", "# sent_id = 1", "# newdoc id = y", "#"]),
             max_size=16)
    | st.lists(conllu_lines, max_size=12),
    st.sampled_from(["", "\n", "\n\n", "\n\n\n"]),
)
def test_iter_conllu_matches_reference_reader(lines, ending):
    """Same sentences, rejections and errors as the reader with a flush
    closure. The one difference: a sentence left open at the end of the file
    is rejected one line later, where a closing blank line would stand."""
    text = "\n".join(lines) + ending
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.conllu"
        path.write_text(text, encoding="utf-8")
        got = _read_all(iter_conllu, path)
        old = _read_all(reference_iter_conllu, path)
        path.write_text(text + "\n\n", encoding="utf-8")
        closed = _read_all(reference_iter_conllu, path)
    assert got == closed
    assert got[0] == old[0] and got[2] == old[2]
    assert got[1][:-1] == old[1][:-1] and len(got[1]) == len(old[1])


def test_lemma_table_is_read_once_from_the_bundled_table(data_dir):
    rows = (data_dir / "irregular_lemmas.tsv").read_text(encoding="utf-8").splitlines()
    assert word_classes() is word_classes()
    assert word_classes().lemmas == dict(row.split("\t") for row in rows) and len(rows) == 74
