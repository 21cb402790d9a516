"""Affect and semantic lexicon loaders.

Loads the three external resources backing network enrichment: valence
norms (CSV of word ratings), an emotion association lexicon (word/emotion/
flag TSV) and synonym/antonym pair tables. All entries are keyed by Porter
stem; words sharing a stem are merged at load time. Every tab-separated
table goes through `_rows`, and every word-pair table (the free-association
oracle included) through `_load_pairs`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .stemmer import stem

EMOTIONS = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "trust",
)

class LexiconError(ValueError):
    """Raised when a lexicon file cannot be loaded."""


def _safe_stem(word: str) -> str | None:
    word = word.strip().lower()
    if not word or not word.isalpha():
        return None
    return stem(word)


def _rows(path: Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-separated fields) of each nonblank line of a table
    whose rows all have n_fields fields."""
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise LexiconError(f"{path}: line {lineno}: expected {n_fields} fields, got {len(fields)}")
            yield lineno, fields


@dataclass(frozen=True)
class ValenceLexicon:
    """Stem-level valence scores with quartile bounds over the stem distribution."""

    entries: dict[str, tuple[float, int]]  # stem -> (mean score, word count)
    q1: float
    q3: float

    def score(self, s: str) -> float | None:
        entry = self.entries.get(s)
        return entry[0] if entry else None

    def label(self, s: str) -> str:
        """Quartile-based label: positive above q3, negative below q1,
        neutral inside the closed interquartile interval, unrated if absent."""
        entry = self.entries.get(s)
        if entry is None:
            return "unrated"
        score = entry[0]
        if score > self.q3:
            return "positive"
        if score < self.q1:
            return "negative"
        return "neutral"


@dataclass(frozen=True)
class EmotionLexicon:
    """Stem -> set of basic emotions; words sharing a stem are unioned."""

    entries: dict[str, frozenset[str]]
    skipped_rows: int = 0

    def emotions(self, s: str) -> frozenset[str]:
        return self.entries.get(s, frozenset())


@dataclass(frozen=True)
class SynonymLexicon:
    """Unordered synonymous stem pairs."""

    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class AntonymLexicon:
    """Unordered antonymous stem pairs with a deterministic preferred lookup."""

    pairs: frozenset[tuple[str, str]]
    lookup: dict[str, str] = field(default_factory=dict)

    def antonym(self, s: str) -> str | None:
        return self.lookup.get(s)


def load_valence_norms(path: str | Path) -> ValenceLexicon:
    """Load a `word,valence` CSV on a 1-9 scale, averaging scores over words
    that share a stem.

    Quartiles are computed over the distribution of stem-level scores with
    linear interpolation between order statistics.
    """
    path = Path(path)
    by_stem: dict[str, list[float]] = {}
    bad_rows: list[str] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "word" not in reader.fieldnames or "valence" not in reader.fieldnames:
            raise LexiconError(
                f"{path}: missing required columns 'word'/'valence' "
                f"(found {reader.fieldnames})"
            )
        for lineno, row in enumerate(reader, start=2):
            word = (row.get("word") or "").strip().lower()
            raw = (row.get("valence") or "").strip()
            try:
                score = float(raw)
            except ValueError:
                bad_rows.append(f"line {lineno}: unparsable score {raw!r}")
                continue
            if not 1.0 <= score <= 9.0:
                bad_rows.append(f"line {lineno}: score {score} outside scale (1.0, 9.0)")
                continue
            s = _safe_stem(word)
            if s is None:
                bad_rows.append(f"line {lineno}: unusable word {word!r}")
                continue
            by_stem.setdefault(s, []).append(score)
    if bad_rows:
        raise LexiconError(f"{path}: {len(bad_rows)} bad rows: " + "; ".join(bad_rows[:5]))
    if not by_stem:
        raise LexiconError(f"{path}: no entries")
    entries = {s: (sum(v) / len(v), len(v)) for s, v in by_stem.items()}
    scores = sorted(v[0] for v in entries.values())
    q1, q3 = _percentile(scores, 0.25), _percentile(scores, 0.75)
    return ValenceLexicon(entries=entries, q1=q1, q3=q3)


def _percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation at position (n-1)*q of the ordered values, with
    numpy.percentile's two-sided lerp, so that results agree to the bit."""
    pos = (len(ordered) - 1) * q
    i = int(pos)
    t = pos - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def load_emotion_lexicon(path: str | Path) -> EmotionLexicon:
    """Load a word/emotion/flag TSV; flag=1 rows are unioned per stem.

    Rows naming a value outside the eight-emotion universe (e.g. the raw
    positive/negative polarity rows) are skipped and counted.
    """
    path = Path(path)
    by_stem: dict[str, set[str]] = {}
    skipped = 0
    for lineno, (word, emotion, flag) in _rows(path, 3):
        if flag not in ("0", "1"):
            raise LexiconError(f"{path}: line {lineno}: bad flag {flag!r}")
        emotion = emotion.strip().lower()
        if emotion not in EMOTIONS:
            skipped += 1
            continue
        s = _safe_stem(word)
        if s is None:
            raise LexiconError(f"{path}: line {lineno}: unusable word {word!r}")
        by_stem.setdefault(s, set())
        if flag == "1":
            by_stem[s].add(emotion)
    entries = {s: frozenset(v) for s, v in by_stem.items()}
    return EmotionLexicon(entries=entries, skipped_rows=skipped)


def _load_pairs(path: str | Path) -> tuple[frozenset[tuple[str, str]], int]:
    """Unordered (min, max) stem pairs of a word-pair table, and the number
    of self-pairs dropped."""
    path = Path(path)
    pairs: set[tuple[str, str]] = set()
    dropped_self = 0
    for lineno, fields in _rows(path, 2):
        a, b = _safe_stem(fields[0]), _safe_stem(fields[1])
        if a is None or b is None:
            raise LexiconError(f"{path}: line {lineno}: unusable pair {fields!r}")
        if a == b:
            dropped_self += 1
            continue
        pairs.add((min(a, b), max(a, b)))
    return frozenset(pairs), dropped_self


def load_synonyms(path: str | Path) -> SynonymLexicon:
    """Load a word-pair TSV of synonyms as stem pairs; symmetric, deduplicated,
    self-pairs dropped."""
    pairs, _ = _load_pairs(path)
    return SynonymLexicon(pairs=pairs)


def load_antonyms(path: str | Path) -> AntonymLexicon:
    """Load a word-pair TSV of antonyms as stem pairs; per-stem lookup prefers
    the lexicographically smallest antonym."""
    pairs, _ = _load_pairs(path)
    lookup: dict[str, str] = {}
    for a, b in sorted(pairs):
        for x, y in ((a, b), (b, a)):
            if x not in lookup or y < lookup[x]:
                lookup[x] = y
    return AntonymLexicon(pairs=pairs, lookup=lookup)
