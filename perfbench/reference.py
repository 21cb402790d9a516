"""A fixed computation shaped like one tfmn command, timed around every
command of the benchmark to gauge the host's speed at that moment.

Usage: python3 reference.py OUT_JSON

Like a command, it is a fresh interpreter that imports networkx, tokenises
and suffix-strips text, counts into dicts, runs closeness centrality on a
graph and writes JSON. It uses no tfmn code, so a change to the program
does not move it.
"""

import json
import re
import sys

import networkx as nx

WORDS = [f"{a}{b}{c}" for a in ("re", "un", "over", "in") for b in
         ("connect", "play", "form", "state", "read", "light") for c in
         ("", "s", "ed", "ing", "ness", "ment", "ful", "ly")]
SUFFIXES = ("ment", "ness", "ing", "ful", "ed", "ly", "s")

closeness = nx.closeness_centrality(nx.barabasi_albert_graph(300, 3, seed=7))
counts: dict[str, int] = {}
for word in re.findall(r"[a-z]+", " ".join(WORDS * 100)):
    for suffix in SUFFIXES:
        if word.endswith(suffix):
            word = word[: -len(suffix)]
            break
    counts[word] = counts.get(word, 0) + 1
table = {f"k{i}": [i, str(i)] for i in range(40000)}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"closeness": closeness, "counts": counts, "table": table}, fh)
