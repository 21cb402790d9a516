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
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .lexicons import _rows

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
]


@dataclass(frozen=True)
class RawDocument:
    id: str
    text: str


@dataclass(frozen=True)
class Token:
    index: int  # 1-based
    surface: str
    lemma: str
    upos: str
    head: int  # 0 = root
    deprel: str


@dataclass(frozen=True)
class ParsedSentence:
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
        # follow head links from every token; a cycle never reaches the root
        for tok in self.tokens:
            seen = set()
            cur = tok.index
            while cur != 0:
                if cur in seen:
                    raise ValueError(f"cycle in head links at token {tok.index}")
                seen.add(cur)
                cur = self.tokens[cur - 1].head


class ConlluError(ValueError):
    """File-level CoNLL-U parse failure."""


# ---------------------------------------------------------------------------
# cleaning

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_WS_RE = re.compile(r"\s+")


def _strip_pictographs(text: str) -> str:
    out = []
    for ch in text:
        if ord(ch) >= 0x2190 and unicodedata.category(ch) in ("So", "Sk", "Cs", "Co"):
            continue
        if 0x1F000 <= ord(ch) <= 0x1FFFF or 0x2600 <= ord(ch) <= 0x27BF:
            continue
        out.append(ch)
    return "".join(out)


def clean_document(doc: RawDocument) -> RawDocument:
    """Strip pictographic codepoints and '#' characters (the hashtag word
    itself is kept), then URLs and @mentions; normalize whitespace.
    Idempotent: the characters go first, so removing them cannot join the
    pieces of a new URL or mention."""
    text = _strip_pictographs(doc.text).replace("#", "")
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _WS_RE.sub(" ", text).strip()
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
    sentences = list(iter_conllu(path, rejections))
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
    return dict(fields for _, fields in _rows(path, 2))


@dataclass(frozen=True)
class _WordClasses:
    determiners: frozenset[str]
    prepositions: frozenset[str]
    auxiliaries: frozenset[str]
    copulas: frozenset[str]
    negations: frozenset[str]
    conjunctions: frozenset[str]
    pronouns: frozenset[str]
    lemmas: dict[str, str] = field(default_factory=dict)


@functools.cache
def word_classes() -> _WordClasses:
    return _WordClasses(
        determiners=_load_wordlist("determiners.txt"),
        prepositions=_load_wordlist("prepositions.txt"),
        auxiliaries=_load_wordlist("auxiliaries.txt"),
        copulas=_load_wordlist("copulas.txt"),
        negations=_load_wordlist("negations.txt"),
        conjunctions=_load_wordlist("conjunctions.txt"),
        pronouns=_load_wordlist("pronouns.txt"),
        lemmas=_load_lemma_table(),
    )


class UnparsedSentence(ValueError):
    """The heuristic parser found no usable verb/noun pattern."""


_WORD_RE = re.compile(r"[a-zA-Z]+")

_CONTRACTIONS = [("won't", "will not"), ("can't", "can not"), ("cannot", "can not"), ("n't", " not")]

# coarse tag values used only inside the heuristic parser
_DET, _ADP, _AUX, _CCONJ, _NEG, _CONTENT = "DET", "ADP", "AUX", "CCONJ", "NEG", "CONTENT"


def heuristic_parse(sentence: str, doc_id: str = "heuristic") -> ParsedSentence:
    """Rule-based dependency tree for a short English sentence.

    Rules: a copula construction roots the predicate with the subject as
    nsubj and the copula as cop; otherwise the second content word is the
    root verb, the content word before it the subject. Determiners attach
    to the next content word, prepositions become case markers of the
    following content word (attached obl to the root), negation attaches
    between subject and predicate in negated copula sentences and as a
    root modifier otherwise. Raises UnparsedSentence when no pattern fits.
    """
    classes = word_classes()
    lowered = sentence.lower()
    for contraction, expansion in _CONTRACTIONS:
        lowered = lowered.replace(contraction, expansion)
    words = _WORD_RE.findall(lowered)
    if not words:
        raise UnparsedSentence(f"no tokens in {sentence!r}")

    def tag(w: str) -> str:
        if w in classes.negations:
            return _NEG
        if w in classes.determiners:
            return _DET
        if w in classes.prepositions:
            return _ADP
        if w in classes.auxiliaries:
            return _AUX
        if w in classes.conjunctions:
            return _CCONJ
        return _CONTENT

    tags = [tag(w) for w in words]
    content_idx = [i for i, t in enumerate(tags) if t == _CONTENT]
    if len(content_idx) < 2:
        raise UnparsedSentence(f"fewer than two content words in {sentence!r}")

    n = len(words)
    heads = [-1] * n
    deprels = [""] * n
    upos = [""] * n

    # copula construction: be-form with content on both sides
    cop_i = next(
        (
            i
            for i, w in enumerate(words)
            if w in classes.copulas
            and any(j < i for j in content_idx)
            and any(j > i for j in content_idx)
        ),
        None,
    )

    if cop_i is not None:
        root = next(j for j in content_idx if j > cop_i)
        subj = max(j for j in content_idx if j < cop_i)
        neg = next((i for i, t in enumerate(tags) if t == _NEG and cop_i < i < root), None)
        heads[root] = 0
        deprels[root] = "root"
        upos[root] = "NOUN"
        heads[cop_i] = root + 1
        deprels[cop_i] = "cop"
        upos[cop_i] = "AUX"
        if neg is not None:
            # negated copula: subject - negation - predicate chain
            heads[neg] = root + 1
            deprels[neg] = "advmod"
            upos[neg] = "PART"
            heads[subj] = neg + 1
        else:
            heads[subj] = root + 1
        deprels[subj] = "nsubj"
        upos[subj] = "PRON" if words[subj] in classes.pronouns else "NOUN"
    else:
        root = content_idx[1]
        subj = content_idx[0]
        heads[root] = 0
        deprels[root] = "root"
        upos[root] = "VERB"
        heads[subj] = root + 1
        deprels[subj] = "nsubj"
        upos[subj] = "PRON" if words[subj] in classes.pronouns else "NOUN"

    # generic attachment for everything still unheaded
    prev_content: int | None = None
    seen_obj = False
    for i in range(n):
        if heads[i] != -1:
            if tags[i] == _CONTENT or tags[i] == _NEG:
                prev_content = i
            continue
        t = tags[i]
        nxt_content = next((j for j in content_idx if j > i), None)
        if t == _DET:
            heads[i] = (nxt_content + 1) if nxt_content is not None else root + 1
            deprels[i] = "det"
            upos[i] = "DET"
        elif t == _ADP:
            heads[i] = (nxt_content + 1) if nxt_content is not None else root + 1
            deprels[i] = "case"
            upos[i] = "ADP"
        elif t == _AUX:
            heads[i] = root + 1
            deprels[i] = "aux"
            upos[i] = "AUX"
        elif t == _CCONJ:
            heads[i] = (nxt_content + 1) if nxt_content is not None else root + 1
            deprels[i] = "cc"
            upos[i] = "CCONJ"
        elif t == _NEG:
            heads[i] = root + 1
            deprels[i] = "advmod"
            upos[i] = "PART"
            prev_content = i
        else:  # CONTENT
            if i < root:
                nxt = next(j for j in content_idx if j > i)  # root at worst
                heads[i] = nxt + 1
                deprels[i] = "amod"
            else:
                prev_tag = tags[i - 1] if i > 0 else None
                if prev_tag == _DET and i >= 2:
                    prev_tag = tags[i - 2]
                if prev_tag == _ADP:
                    heads[i] = root + 1
                    deprels[i] = "obl"
                elif not seen_obj:
                    heads[i] = root + 1
                    deprels[i] = "obj"
                    seen_obj = True
                else:
                    heads[i] = (prev_content + 1) if prev_content is not None else root + 1
                    deprels[i] = "nmod"
            upos[i] = "PRON" if words[i] in classes.pronouns else "NOUN"
            prev_content = i

    tokens = tuple(
        Token(
            index=i + 1,
            surface=words[i],
            lemma=classes.lemmas.get(words[i], words[i]),
            upos=upos[i],
            head=heads[i],
            deprel=deprels[i],
        )
        for i in range(n)
    )
    parsed = ParsedSentence(doc_id=doc_id, tokens=tokens)
    parsed.validate()
    return parsed
