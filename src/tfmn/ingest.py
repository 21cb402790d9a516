"""Corpus ingestion: cleaning, filtering and dependency parsing.

Two parsing paths produce ParsedSentence streams: a CoNLL-U reader for
corpora parsed with an external dependency parser (the recommended path),
and a rule-based heuristic parser so that fixtures and the benchmark run
with no external tooling. The heuristic parser is lower fidelity.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from collections import Counter
from importlib import resources
from itertools import chain
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple

from . import add_time, lexicons, stage

__all__ = [
    "RawDocument",
    "Token",
    "ParsedSentence",
    "ConlluError",
    "clean_document",
    "filter_short",
    "split_sentences",
    "parse_conllu",
    "iter_conllu",
    "to_conllu",
    "heuristic_parse",
    "read_text_corpus",
    "parse_documents",
]


class RawDocument(NamedTuple):
    id: str
    text: str


class Token(NamedTuple):
    index: int  # 1-based
    surface: str
    lemma: str
    upos: str
    head: int  # 0 = root
    deprel: str


class ParsedSentence(NamedTuple):
    doc_id: str
    tokens: tuple[Token, ...]

    def validate(self) -> None:
        n = len(self.tokens)
        for pos, tok in enumerate(self.tokens, start=1):
            if tok.index != pos:
                raise ValueError(f"non-contiguous token index {tok.index} at position {pos}")
            if not 0 <= tok.head <= n:
                raise ValueError(f"head {tok.head} out of range for {n}-token sentence")
        roots = [t for t in self.tokens if t.head == 0]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        # follow head links from every token; a cycle never reaches the root.
        # reaches[i] is True once token i is known to reach the root and None
        # while it is on the current walk, so no link is followed twice.
        reaches: list[bool | None] = [True] + [False] * n
        for tok in self.tokens:
            path = []
            cur = tok.index
            while reaches[cur] is False:
                reaches[cur] = None
                path.append(cur)
                cur = self.tokens[cur - 1].head
            if reaches[cur] is None:
                raise ValueError(f"cycle in head links at token {tok.index}")
            for i in path:
                reaches[i] = True


class ConlluError(ValueError):
    """File-level CoNLL-U parse failure."""


# ---------------------------------------------------------------------------
# cleaning

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
# every removed code point is at or above U+2190; the negated class compiles
# in about a fifth of the time of the range [\u2190-\U0010ffff]
_HIGH_RE = re.compile(r"[^\x00-\u218f]")


def _pictograph(match: re.Match) -> str:
    """A matched code point, or "" for a symbol, surrogate, private-use or emoji-block one."""
    ch = match.group()
    if 0x2600 <= ord(ch) <= 0x27BF or 0x1F000 <= ord(ch) <= 0x1FFFF:
        return ""
    return "" if unicodedata.category(ch) in ("So", "Sk", "Cs", "Co") else ch


def clean_document(doc: RawDocument) -> RawDocument:
    """Strip pictographic codepoints and '#' characters (the hashtag word
    itself is kept), then URLs and @mentions; normalize whitespace.
    Idempotent: the characters go first, so removing them cannot join the
    pieces of a new URL or mention."""
    text = _HIGH_RE.sub(_pictograph, doc.text).replace("#", "")
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = " ".join(text.split())  # str.split's whitespace is re's \s
    return RawDocument(id=doc.id, text=text)


def filter_short(
    docs: Iterable[RawDocument], min_words: int = 3
) -> tuple[list[RawDocument], int]:
    """Drop documents with fewer than min_words whitespace-separated words.
    Returns (kept documents, dropped count)."""
    kept, dropped = [], 0
    for doc in docs:
        if len(doc.text.split()) < min_words:
            dropped += 1
        else:
            kept.append(doc)
    return kept, dropped


_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    """Split raw text on sentence-final punctuation followed by whitespace."""
    return [s for s in (_SENT_SPLIT_RE.split(text)) if s.strip()]


def read_text_corpus(path: str | Path) -> list[RawDocument]:
    """Read a one-document-per-line corpus, each line `id<TAB>text`."""
    docs = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'id<TAB>text'")
            doc_id, text = line.split("\t", 1)
            docs.append(RawDocument(id=doc_id, text=text))
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate document ids")
    return docs


# ---------------------------------------------------------------------------
# CoNLL-U

def iter_conllu(
    path: str | Path, rejections: list[str] | None = None
) -> Iterator[ParsedSentence]:
    """Stream sentences from a CoNLL-U file.

    Multiword-token and empty-node lines are skipped. Sentences whose head
    links do not form a valid tree are skipped; a diagnostic naming the
    blank line that ends the sentence (one past the file's last line for a
    sentence at its end) is appended to `rejections` when given. Structural
    file errors raise ConlluError.
    """
    path = Path(path)
    doc_id = str(path)
    block: list[Token] = []
    with path.open(encoding="utf-8") as fh:
        # a final "" closes the last block as a blank line would
        for lineno, line in enumerate(chain(fh, [""]), start=1):
            line = line.rstrip("\n")
            if not line:
                if block:
                    sent = ParsedSentence(doc_id=doc_id, tokens=tuple(block))
                    block = []
                    try:
                        sent.validate()
                    except ValueError as exc:
                        if rejections is not None:
                            rejections.append(f"{path}: sentence ending line {lineno}: {exc}")
                    else:
                        yield sent
                continue
            if line.startswith("#"):
                m = re.match(r"#\s*newdoc id\s*=\s*(.+)", line)
                if m:
                    doc_id = m.group(1).strip()
                continue
            fields = line.split("\t")
            if len(fields) != 10:
                raise ConlluError(f"{path}: line {lineno}: expected 10 fields, got {len(fields)}")
            tok_id = fields[0]
            if "-" in tok_id or "." in tok_id:
                continue  # multiword token / empty node
            try:
                index = int(tok_id)
                head = int(fields[6])
            except ValueError as exc:
                raise ConlluError(f"{path}: line {lineno}: {exc}") from exc
            block.append(
                Token(
                    index=index,
                    surface=fields[1],
                    lemma=fields[2] if fields[2] != "_" else fields[1],
                    upos=fields[3],
                    head=head,
                    deprel=fields[7],
                )
            )


def parse_conllu(
    path: str | Path,
) -> tuple[list[ParsedSentence], list[str]]:
    """Parse a whole CoNLL-U file; returns (sentences, rejection diagnostics)."""
    rejections: list[str] = []
    start = perf_counter()
    sentences = list(iter_conllu(path, rejections))
    add_time("parse", perf_counter() - start, len(sentences) + len(rejections))
    return sentences, rejections


def to_conllu(sentence: ParsedSentence) -> str:
    """Serialize one sentence back to a CoNLL-U block (round-trip safe)."""
    lines = [f"# newdoc id = {sentence.doc_id}"]
    for tok in sentence.tokens:
        lines.append(
            "\t".join(
                [
                    str(tok.index),
                    tok.surface,
                    tok.lemma,
                    tok.upos,
                    "_",
                    "_",
                    str(tok.head),
                    tok.deprel,
                    "_",
                    "_",
                ]
            )
        )
    return "\n".join(lines) + "\n\n"


# ---------------------------------------------------------------------------
# heuristic parser

def _load_wordlist(name: str) -> frozenset[str]:
    text = resources.files("tfmn.data").joinpath(name).read_text(encoding="utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def _load_lemma_table() -> dict[str, str]:
    path = resources.files("tfmn.data").joinpath("irregular_lemmas.tsv")
    return dict(fields for _, fields in lexicons._rows(path, 2))


# (word list, (deprel, upos, attaches to the next content word rather than the
# root?)) in precedence order: a word on two lists takes the earlier class
_FUNCTION_CLASSES = [
    ("negations.txt", ("advmod", "PART", False)),
    ("determiners.txt", ("det", "DET", True)),
    ("prepositions.txt", ("case", "ADP", True)),
    ("auxiliaries.txt", ("aux", "AUX", False)),
    ("conjunctions.txt", ("cc", "CCONJ", True)),
]


class _WordClasses(NamedTuple):
    function_words: dict[str, tuple[str, str, bool]]  # a word absent from it is a content word
    copulas: frozenset[str]
    negations: frozenset[str]
    pronouns: frozenset[str]
    lemmas: dict[str, str]


@functools.cache
def word_classes() -> _WordClasses:
    function_words: dict[str, tuple[str, str, bool]] = {}
    for name, cls in _FUNCTION_CLASSES:
        for w in _load_wordlist(name):
            function_words.setdefault(w, cls)
    return _WordClasses(
        function_words=function_words,
        copulas=_load_wordlist("copulas.txt"),
        negations=_load_wordlist("negations.txt"),
        pronouns=_load_wordlist("pronouns.txt"),
        lemmas=_load_lemma_table(),
    )


class UnparsedSentence(ValueError):
    """The heuristic parser found no usable verb/noun pattern."""


_WORD_RE = re.compile(r"[a-zA-Z]+")

_CONTRACTIONS = [("won't", "will not"), ("can't", "can not"), ("cannot", "can not"), ("n't", " not")]


def heuristic_parse(sentence: str, doc_id: str = "heuristic") -> ParsedSentence:
    """Rule-based dependency tree for a short English sentence.

    Rules: a copula construction roots the predicate with the subject as
    nsubj and the copula as cop; otherwise the second content word is the
    root verb, the content word before it the subject. Each function word
    gets the deprel and upos of its class in the function-word table:
    determiners, prepositions (case markers of the following content word,
    which attaches obl to the root) and conjunctions attach to the next
    content word, auxiliaries and negations to the root, except that a
    negation between copula and predicate heads the subject. Raises
    UnparsedSentence when no pattern fits.
    """
    classes = word_classes()
    lowered = sentence.lower()
    for contraction, expansion in _CONTRACTIONS:
        lowered = lowered.replace(contraction, expansion)
    words = _WORD_RE.findall(lowered)
    if not words:
        raise UnparsedSentence(f"no tokens in {sentence!r}")
    fclass = [classes.function_words.get(w) for w in words]  # None for a content word
    content_idx = [i for i, cls in enumerate(fclass) if cls is None]
    if len(content_idx) < 2:
        raise UnparsedSentence(f"fewer than two content words in {sentence!r}")

    n = len(words)
    heads = [-1] * n
    deprels = [""] * n
    # a function word's upos is set from its class below
    upos = ["PRON" if w in classes.pronouns else "NOUN" for w in words]

    # next_content[i]: the first content word after word i, if any
    next_content: list[int | None] = [None] * n
    for i in range(n - 1, 0, -1):
        next_content[i - 1] = i if fclass[i] is None else next_content[i]

    # copula construction: be-form with content on both sides
    cop_i = next(
        (i for i, w in enumerate(words)
         if w in classes.copulas and content_idx[0] < i < content_idx[-1]),
        None,
    )
    if cop_i is None:
        root, subj = content_idx[1], content_idx[0]
        subj_head = root
        upos[root] = "VERB"
    else:
        root = next_content[cop_i]
        subj = max(j for j in content_idx if j < cop_i)
        # negated copula: subject - negation - predicate chain
        subj_head = next((i for i in range(cop_i + 1, root) if words[i] in classes.negations), root)
        upos[root] = "NOUN"
        heads[cop_i], deprels[cop_i], upos[cop_i] = root + 1, "cop", "AUX"
    heads[root], deprels[root] = 0, "root"
    heads[subj], deprels[subj] = subj_head + 1, "nsubj"

    # generic attachment for everything still unheaded
    prev_content: int | None = None
    seen_obj = False
    for i, cls in enumerate(fclass):
        if heads[i] == -1:
            if cls is not None:
                deprels[i], upos[i], to_next = cls
                nxt = next_content[i]
                heads[i] = nxt + 1 if to_next and nxt is not None else root + 1
            elif i < root:
                heads[i], deprels[i] = next_content[i] + 1, "amod"  # root at worst
            else:
                before = fclass[i - 1]  # i >= root >= 1
                if before and before[0] == "det" and i >= 2:
                    before = fclass[i - 2]
                if before and before[0] == "case":
                    heads[i], deprels[i] = root + 1, "obl"
                elif not seen_obj:
                    heads[i], deprels[i] = root + 1, "obj"
                    seen_obj = True
                else:
                    heads[i] = (prev_content + 1) if prev_content is not None else root + 1
                    deprels[i] = "nmod"
        if cls is None or cls[0] == "advmod":  # a negation heads nmod words as content does
            prev_content = i

    lemmas = [classes.lemmas.get(w, w) for w in words]
    tokens = tuple(map(Token, range(1, n + 1), words, lemmas, upos, heads, deprels))
    parsed = ParsedSentence(doc_id=doc_id, tokens=tokens)
    parsed.validate()
    return parsed


def parse_documents(docs: list[RawDocument], min_words: int, counts: Counter):
    """Clean, filter, split and heuristically parse plain-text documents,
    yielding each sentence as soon as it is parsed; adds the documents kept
    and dropped as short, and the sentences left unparsed, to counts.

    Stage "clean" times the cleaning and filtering; stage "parse" the
    splitting and parsing, from two clock reads per parsed sentence, which
    leave out the caller's time between two sentences, summed here and
    added once the last document is done."""
    with stage("clean", len(docs)):
        docs, dropped = filter_short([clean_document(d) for d in docs], min_words)
    counts["documents"] += len(docs)
    counts["dropped_short"] += dropped
    busy, attempted = 0.0, 0
    start = perf_counter()
    for doc in docs:
        for i, sent in enumerate(split_sentences(doc.text)):
            attempted += 1
            try:
                parsed = heuristic_parse(sent, doc_id=f"{doc.id}-{i}")
            except UnparsedSentence:
                counts["unparsed_sentences"] += 1
                continue
            busy += perf_counter() - start
            yield parsed
            start = perf_counter()
    add_time("parse", busy + perf_counter() - start, attempted)
