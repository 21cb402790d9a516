"""Seeded input generators for the benchmark.

Every generator draws from the `random.Random` it is given, so the same
seed always gives the same files, and the program under test only ever
sees the files written here.

- `write_zipf_corpus`: an `id<TAB>text` corpus whose content words follow a
  Zipf law (s = 1) over ~8k surface forms, so stem inputs repeat the way
  they do in real text.
- `write_graph`: a two-layer network JSON in the format `tfmn` reads, with a
  heavy-tailed syntactic layer, a sparse synonym layer, a few small extra
  components and ~40% rated nodes.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
import re
from pathlib import Path

_WORD_RE = re.compile(r"[a-z]+")
_VOWELS = "aeiou"
_CONSONANTS = "bcdfghklmnprstvz"
_SUFFIXES = ("s", "ed", "ing", "ly", "ness", "er", "ment", "ful")


def wordlist(data: Path, name: str) -> list[str]:
    return [w.strip() for w in (data / name).read_text(encoding="utf-8").splitlines() if w.strip()]


def _real_words(data: Path) -> list[str]:
    """Alphabetic words of the bundled lexicons and benchmark paragraphs."""
    words: set[str] = set()
    lex = data / "lexicons"
    with (lex / "valence.csv").open(newline="", encoding="utf-8") as fh:
        words.update(row["word"].lower() for row in csv.DictReader(fh))
    for name in ("emotions.tsv", "synonyms.tsv", "antonyms.tsv"):
        for line in (lex / name).read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            words.update(f.lower() for f in fields[:2])
    for path in sorted((data / "benchmark").glob("*")):
        words.update(_WORD_RE.findall(path.read_text(encoding="utf-8").lower()))
    function = set()
    for name in ("determiners.txt", "prepositions.txt", "auxiliaries.txt", "copulas.txt",
                 "negations.txt", "conjunctions.txt", "pronouns.txt"):
        function.update(wordlist(data, name))
    return sorted(w for w in words if w.isalpha() and len(w) > 2 and w not in function)


def _pseudo_word(rng: random.Random) -> str:
    syllables = rng.randint(2, 4)
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)) + rng.choice(
        ("", "n", "r", "s", "t", "l")
    )


def _vocabulary(rng: random.Random, data: Path, size: int) -> list[str]:
    """At least `size` distinct surface forms: real words, their inflections
    and pseudo-words, in random (seeded) Zipf-rank order."""
    real = _real_words(data)
    forms = set(real)
    for w in real:
        for suffix in rng.sample(_SUFFIXES, 3):
            forms.add(w + suffix)
    while len(forms) < size:
        forms.add(_pseudo_word(rng))
    vocab = sorted(forms)
    rng.shuffle(vocab)
    return vocab


def write_zipf_corpus(rng: random.Random, data: Path, path: Path, documents: int,
                      vocabulary: int = 8000) -> dict:
    """Write a one-document-per-line corpus and return its generated shape."""
    vocab = _vocabulary(rng, data, vocabulary)
    cum_weights = list(itertools.accumulate(1.0 / r for r in range(1, len(vocab) + 1)))
    determiners = wordlist(data, "determiners.txt")
    prepositions = wordlist(data, "prepositions.txt")
    auxiliaries = wordlist(data, "auxiliaries.txt")
    conjunctions = wordlist(data, "conjunctions.txt")
    pronouns = wordlist(data, "pronouns.txt")
    negations = wordlist(data, "negations.txt")

    def content(k: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum_weights, k=k)

    def sentence() -> str:
        shape = rng.random()
        if shape < 0.03:  # too few content words: the heuristic parser gives up
            words = [rng.choice(pronouns), rng.choice(auxiliaries)]
        elif shape < 0.35:  # copula construction, sometimes negated
            words = [rng.choice(determiners), *content(1), rng.choice(("is", "are", "was"))]
            if rng.random() < 0.3:
                words.append(rng.choice(negations))
            words += content(rng.randint(1, 2))
            if rng.random() < 0.5:
                words += [rng.choice(prepositions), rng.choice(determiners), *content(1)]
        else:
            words = [rng.choice(pronouns)] if rng.random() < 0.2 else [rng.choice(determiners), *content(1)]
            if rng.random() < 0.3:
                words.append(rng.choice(auxiliaries))
            if rng.random() < 0.15:
                words.append(rng.choice(negations))
            words += content(1)
            for _ in range(rng.randint(1, 4)):
                glue = rng.random()
                if glue < 0.4:
                    words += [rng.choice(determiners), *content(1)]
                elif glue < 0.7:
                    words += [rng.choice(prepositions), rng.choice(determiners), *content(1)]
                elif glue < 0.85:
                    words += [rng.choice(conjunctions), *content(1)]
                else:
                    words += content(2)
        text = " ".join(words)
        return text[0].upper() + text[1:] + rng.choice(".....!?")

    sentences = 0
    with path.open("w", encoding="utf-8") as fh:
        for d in range(documents):
            noise = rng.random()
            if noise < 0.02:  # dropped by the minimum-length filter
                fh.write(f"d{d:06d}\t{content(1)[0]}!\n")
                continue
            n = rng.randint(1, 5)
            sentences += n
            parts = [sentence() for _ in range(n)]
            if noise < 0.10:
                parts.append(rng.choice(("https://example.org/x", "@someone", "#tag", "❤")))
            fh.write(f"d{d:06d}\t{' '.join(parts)}\n")
    return {"documents": documents, "sentences_written": sentences, "surface_forms": len(vocab)}


def write_graph(rng: random.Random, path: Path, nodes: int, lexicon_stems: dict) -> dict:
    """Write a two-layer network JSON and return target lists for the query
    commands.

    `lexicon_stems` holds the stems the bundled lexicons know, as
    {"valence": {stem: (score, label)}, "emotion": [...], "antonym": [...],
    "synonym_pairs": [(a, b), ...], "negations": [...]}.
    """
    valence = lexicon_stems["valence"]
    names = sorted(set(valence) | set(lexicon_stems["emotion"]) | set(lexicon_stems["antonym"]))
    names = [s for s in names if s not in lexicon_stems["negations"]]
    rng.shuffle(names)
    negations = sorted(lexicon_stems["negations"])
    real_budget = int(nodes * 0.45)
    chosen = names[:real_budget]
    taken = set(chosen) | set(negations)
    while len(chosen) + len(negations) < nodes:
        w = _pseudo_word(rng)
        if w not in taken:
            taken.add(w)
            chosen.append(w)
    rng.shuffle(chosen)

    # a few small components, kept off the synonym layer so they stay apart
    small_sizes = [2, 2, 3, 3, 4, 5]
    small_total = sum(small_sizes)
    main = negations + chosen[: len(chosen) - small_total]
    small_nodes = chosen[len(chosen) - small_total:]

    edge_count: dict[tuple[str, str], int] = {}

    def add(a: str, b: str) -> None:
        pair = (a, b) if a < b else (b, a)
        edge_count[pair] = edge_count.get(pair, 0) + 1

    # preferential attachment, m = 3; the negation markers seed the core
    m = 3
    core = main[: m + 1]
    for a, b in itertools.combinations(core, 2):
        add(a, b)
    repeated = [x for pair in edge_count for x in pair]
    for new in main[m + 1:]:
        targets: set[str] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in sorted(targets):
            add(new, t)
            repeated += [new, t]
    # repeated co-occurrence counts on some pairs
    for pair in rng.sample(sorted(edge_count), len(edge_count) // 4):
        edge_count[pair] += rng.randint(1, 6)
    # negated words with a known antonym, so that profiles substitute antonyms
    negated = sorted(set(main).intersection(lexicon_stems["antonym"]))
    for s in negated:
        add(s, rng.choice(negations))

    start = 0
    for size in small_sizes:
        comp = small_nodes[start:start + size]
        start += size
        for a, b in zip(comp, comp[1:]):
            add(a, b)

    main_set = set(main) - set(negations)
    synonyms: set[tuple[str, str]] = {
        (a, b) for a, b in lexicon_stems["synonym_pairs"] if a in main_set and b in main_set
    }
    pool = sorted(main_set)
    while len(synonyms) < nodes // 3:
        a, b = rng.sample(pool, 2)
        synonyms.add((a, b) if a < b else (b, a))

    all_nodes = sorted(set(main) | set(small_nodes))
    # pseudo-words get labels too, so that ~40% of all nodes are rated
    labels = {s: valence[s] for s in all_nodes if s in valence}
    unlabelled = [s for s in all_nodes if s not in valence and s not in negations]
    for s in rng.sample(unlabelled, max(0, min(len(unlabelled), int(0.4 * nodes) - len(labels)))):
        label = rng.choice(("positive", "neutral", "neutral", "negative"))
        low = {"negative": 1.0, "neutral": 4.0, "positive": 6.5}[label]
        labels[s] = (round(rng.uniform(low, low + 2.5), 3), label)
    node_rows = []
    for s in all_nodes:
        score, label = labels.get(s, (None, "unrated"))
        node_rows.append({
            "stem": s,
            "valence_label": label,
            "valence_score": score,
            "emotions": [],
            "is_negation_marker": s in negations,
        })
    payload = {
        "nodes": node_rows,
        "syntactic_edges": [[a, b, c] for (a, b), c in sorted(edge_count.items())],
        "synonym_edges": [[a, b] for a, b in sorted(synonyms)],
        "provenance": {"corpus_id": "generated", "config": {}, "config_hash": "generated"},
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")

    queryable = sorted(main_set)
    near_negated = sorted({b if a in negated else a for a, b in edge_count
                           if (a in negated) != (b in negated)} & main_set)
    profile_targets = rng.sample(near_negated, min(50, len(near_negated)))
    rest = sorted(main_set - set(profile_targets))
    profile_targets += rng.sample(rest, min(100 - len(profile_targets), len(rest)))
    return {
        "aura_targets": rng.sample(queryable, min(300, len(queryable))),
        "profile_targets": profile_targets,
        "community_target": rng.choice(queryable),
    }
