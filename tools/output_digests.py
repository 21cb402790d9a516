"""Print digests of everything the `tfmn` commands write, so that two
checkouts can be compared byte for byte with one `diff`.

Stdlib only; the commands themselves need what `tfmn` needs (click).

    python3 tools/output_digests.py SRC_DIR

SRC_DIR is a checkout's `src` directory. The bundled lexicons, synthetic
corpus, benchmark paragraphs and free-association oracle are copied from
SRC_DIR into a temporary directory, together with TWEETS, a small fixed tweet-like corpus (emoji,
URLs, mentions, hashtags, contractions, negated copulas, non-ASCII letters)
that the bundled ASCII corpus lacks, UNEVEN, seven short documents that split
3 + 4 over two build workers and 2 + 2 + 3 over three, and CONLLU, a small fixed parsed corpus
whose function words have dependants, so that `build --corpus-format conllu`
exercises chained contraction, which no heuristic tree does. Each command
runs there as `python -m tfmn.cli` with SRC_DIR on PYTHONPATH, relative
paths and an explicit --lexicon-dir, --paragraph-dir and --oracle, so the
paths stamped into outputs are the same for every checkout. The commands:
build of each corpus (the text ones are counted in chunks of documents,
one per usable CPU); rank in each layer mode; aura; profile; communities
--seed 3 --target love; aura --targets ant,hen, profile --targets ant and
communities --seed 0 --target ant on SMALL_NETWORK, a hand-written network
with a pair in both layers, an isolated node, a one-edge synonym layer and
no rated node, so that the listing holds undetermined auras, an empty profile
and a pair in both layers among the edge classes; nulltest --realizations 5
--seed 7 and --realizations 7 --seed 2 (chunks of unequal size on two CPUs);
nulltest on SMALL_NETWORK; nulltest --swaps-per-edge 1 --realizations 8 on
STAR_NETWORK, a star with one disjoint edge whose rewirings fall short, so
that its stderr holds shortfall warnings; export in each format; benchmark
--realizations 5 --seed 0; --version, --help and each subcommand's --help.
In this order, the script prints each command's exit code and the sha256 of
its stdout and of its stderr, then `sha256  path` of every file in the
directory, inputs included, in sorted path order. Before stderr is hashed,
each warning's `path:line: Category: message` is cut to `Category: message`
and the source line printed under it dropped: the path differs per checkout
and the line moves with the code, while the text, count and order of the
warnings are still compared. The commands run without TFMN_LEXICON_DIR and
COLUMNS in their environment, so that neither a default lexicon directory nor
the terminal width reaches them. Two checkouts write the
same files and print the same text when

    diff <(python3 tools/output_digests.py a/src) <(python3 tools/output_digests.py b/src)

prints nothing. build spreads its documents, and nulltest and benchmark
their realizations, over one process per usable CPU; their outputs do not
depend on that count when

    diff <(taskset -c 0 python3 tools/output_digests.py src) <(python3 tools/output_digests.py src)

prints nothing, on a host with more than one CPU.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

NETWORK = "out/synthetic.network.json"
COMMANDS = [
    ["build", "--corpus", "corpus.txt", "--corpus-id", "synthetic", "--lexicon-dir", "lexicons",
     "--out-dir", "out"],
    ["build", "--corpus", "tweets.txt", "--corpus-id", "tweets", "--lexicon-dir", "lexicons",
     "--out-dir", "out"],
    ["build", "--corpus", "uneven.txt", "--corpus-id", "uneven", "--lexicon-dir", "lexicons",
     "--out-dir", "out"],
    ["build", "--corpus", "parsed.conllu", "--corpus-format", "conllu", "--corpus-id", "parsed",
     "--lexicon-dir", "lexicons", "--out-dir", "out"],
    *(["rank", "--network", NETWORK, "--layer-mode", mode, "--out", f"rank-{mode}.csv"]
      for mode in ("aggregate", "syntactic_only", "synonym_only")),
    ["aura", "--network", NETWORK, "--targets", "love,trust,zzz", "--out", "aura.json"],
    ["profile", "--network", NETWORK, "--targets", "love,trust,zzz", "--lexicon-dir", "lexicons",
     "--out-dir", "profile"],
    ["communities", "--network", NETWORK, "--seed", "3", "--target", "love", "--out", "communities.json"],
    ["aura", "--network", "small.network.json", "--targets", "ant,hen", "--out", "aura-small.json"],
    ["profile", "--network", "small.network.json", "--targets", "ant", "--lexicon-dir", "lexicons",
     "--out-dir", "profile-small"],
    ["communities", "--network", "small.network.json", "--seed", "0", "--target", "ant",
     "--out", "communities-small.json"],
    ["nulltest", "--network", NETWORK, "--realizations", "5", "--seed", "7", "--out", "nulltest.json"],
    ["nulltest", "--network", NETWORK, "--realizations", "7", "--seed", "2", "--out", "nulltest-7.json"],
    ["nulltest", "--network", "small.network.json", "--realizations", "6", "--seed", "1",
     "--out", "nulltest-small.json"],
    ["nulltest", "--network", "star.network.json", "--realizations", "8", "--seed", "0",
     "--swaps-per-edge", "1", "--out", "nulltest-star.json"],
    *(["export", "--network", NETWORK, "--format", fmt, "--out", f"export.{fmt}"]
      for fmt in ("graphml", "json", "csv")),
    ["benchmark", "--paragraph-dir", "paragraphs", "--oracle", "oracle.tsv", "--lexicon-dir", "lexicons",
     "--realizations", "5", "--seed", "0", "--out-dir", "bench"],
    ["--version"],
    ["--help"],
    *([command, "--help"] for command in ("build", "rank", "aura", "profile", "communities", "nulltest",
                                          "benchmark", "export")),
]


TWEETS = """\
t01	Science is not boring \u2764\ufe0f #STEM https://t.co/abc123
t02	@jane_doe Women can't be engineers? Wrong! Girls won't quit math \U0001f469\u200d\U0001f52c
t03	The gender gap isn't closing. Mentors don't help enough \U0001f622\U0001f622 www.example.org/gap
t04	Physics is beautiful and chemistry is fun \u2728\u2600 #physics #chemistry
t05	My teacher wasn't supportive but my mother is amazing \u263a
t06	Boys aren't smarter than girls. Talent is not gendered \u2192 data shows it
t07	The caf\u00e9 scientist is na\u00efve about \u00c4rzte and their r\u00f4le \u2122 \u20ac
t08	Mathematics is hard. Mathematics is not impossible \U0001f4aa #WomenInSTEM @stem_org
t09	Computer science cannot exclude women \u2318 \ue000 engineering needs diversity
t10	She doesn't fear failure and she loves research \u2665 \u2190\u218f
t11	STEM careers are rewarding. Stereotypes are harmful \U0001f52c\U0001f9ea\U0001f4bb
t12	\u6570\u5b66 is universal and \u00fcbung makes progress. Anxiety isn't destiny
"""


# A document dropped as short (u2), an unparsed sentence ("Yes."), an
# edgeless one ("Work works work.", a self-pair), and edges, (girl, love) and
# (love, scienc), in the first and last documents, so in two chunks for any
# worker count.
UNEVEN = """\
u1	Girls love science. Science is creative.
u2	too short
u3	Yes. Engineering is not boring.
u4	Work works work. Teachers inspire students.
u5	Mathematics is beautiful and the gap is real.
u6	the gap is closing slowly
u7	Girls love science. Students fear failure.
"""

# Heuristic trees keep every function word a leaf, so only parsed input reaches
# chained contraction: here ADPs, DETs, an aux and a punct have dependants, and
# `women` meets `need` only through three function words. The last sentence has
# a head cycle and is rejected. Columns are separated by single spaces here and
# by tabs in the written file.
CONLLU = """\
# newdoc id = c1
1 Women woman NOUN _ _ 7 nsubj _ _
2 in in ADP _ _ 4 case _ _
3 the the DET _ _ 2 det _ _
4 labs lab NOUN _ _ 1 nmod _ _
5 of of ADP _ _ 6 case _ _
6 science science NOUN _ _ 4 nmod _ _
7 thrive thrive VERB _ _ 0 root _ _
8 . . PUNCT _ _ 7 punct _ _

1 Physics physics PROPN _ _ 4 nsubj _ _
2-3 isn't _ _ _ _ _ _ _ _
2 is be AUX _ _ 4 cop _ _
3 n't not PART _ _ 4 advmod _ _
4 boring boring ADJ _ _ 0 root _ _
5 and and CCONJ _ _ 8 cc _ _
6 will will AUX _ _ 8 aux _ _
7 never never ADV _ _ 6 advmod _ _
8 bore bore VERB _ _ 4 conj _ _
9 girls girl NOUN _ _ 8 obj _ _
10 ! ! PUNCT _ _ 4 punct _ _

# newdoc id = c2
1 Love love NOUN _ _ 2 nsubj _ _
2 loves love VERB _ _ 0 root _ _
3 , , PUNCT _ _ 2 punct _ _
4 mentors mentor NOUN _ _ 3 dep _ _
5 help help VERB _ _ 2 conj _ _

1 Mathematics mathematics NOUN _ _ 4 nsubj _ _
2 and and CCONJ _ _ 3 cc _ _
3 chemistry chemistry NOUN _ _ 1 conj _ _
4 need need VERB _ _ 0 root _ _
5 the the DET _ _ 4 det _ _
6 mentors mentor NOUN _ _ 5 obj _ _
7 of of ADP _ _ 5 nmod _ _
8 the the DET _ _ 7 det _ _
9 women woman NOUN _ _ 8 nmod _ _

1 Wow wow INTJ _ _ 0 root _ _
2 ! ! PUNCT _ _ 1 punct _ _

1 a a NOUN _ _ 2 dep _ _
2 b b NOUN _ _ 1 dep _ _
3 c c VERB _ _ 0 root _ _
"""


# A hand-written network for aura, profile, communities and nulltest: a ring
# with chords and a triangle, one pair in both layers, a one-edge synonym
# layer, an isolated node and no rated node, none of which the bundled corpus
# yields.
SMALL_SYNTACTIC = [("ant", "bee"), ("bee", "cat"), ("cat", "dog"), ("dog", "eel"), ("eel", "fox"),
                   ("fox", "gnu"), ("gnu", "hen"), ("hen", "ant"), ("ant", "dog"), ("bee", "fox"),
                   ("cat", "gnu"), ("ant", "cat"), ("elk", "ant"), ("elk", "eel")]
SMALL_NETWORK = {
    "nodes": [{"emotions": [], "is_negation_marker": False, "stem": stem, "valence_label": "unrated",
               "valence_score": None}
              for stem in ("ant", "bee", "cat", "dog", "eel", "elk", "fox", "gnu", "hen", "owl")],
    "provenance": {"config": {}, "config_hash": "small", "corpus_id": "small"},
    "synonym_edges": [["ant", "bee"]],
    "syntactic_edges": [[min(a, b), max(a, b), 1] for a, b in SMALL_SYNTACTIC],
}


# A star of 300 leaves plus one disjoint edge, with two synonym edges: one swap
# per edge is out of reach, so each nulltest realization warns of a shortfall.
STAR_NETWORK = {
    "nodes": [{"emotions": [], "is_negation_marker": False, "stem": stem, "valence_label": "unrated",
               "valence_score": None}
              for stem in sorted(["a", "b", "c", "d", "hub", "x", "y", *(f"l{i:03d}" for i in range(300))])],
    "provenance": {"config": {}, "config_hash": "star", "corpus_id": "star"},
    "synonym_edges": [["a", "b"], ["c", "d"]],
    "syntactic_edges": sorted([["hub", f"l{i:03d}", 1] for i in range(300)] + [["x", "y", 1]]),
}

# A warning as `warnings.showwarning` prints it: where, what, and the source line.
WARNING = re.compile(rb"^.+?:\d+: (\w*Warning: .*\n)(?:  .*\n)?", re.MULTILINE)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def copy_inputs(data: Path, work: Path) -> None:
    shutil.copytree(data / "lexicons", work / "lexicons")
    shutil.copy(data / "synthetic" / "corpus.txt", work / "corpus.txt")
    (work / "paragraphs").mkdir()
    for paragraph in sorted((data / "benchmark").glob("*.txt")):
        shutil.copy(paragraph, work / "paragraphs" / paragraph.name)
    shutil.copy(data / "benchmark" / "free_associations.tsv", work / "oracle.tsv")
    (work / "small.network.json").write_text(json.dumps(SMALL_NETWORK, indent=1), encoding="utf-8")
    (work / "star.network.json").write_text(json.dumps(STAR_NETWORK, indent=1), encoding="utf-8")
    (work / "tweets.txt").write_text(TWEETS, encoding="utf-8")
    (work / "uneven.txt").write_text(UNEVEN, encoding="utf-8")
    (work / "parsed.conllu").write_text(
        "".join(line if line.startswith("#") else line.replace(" ", "\t")
                for line in CONLLU.splitlines(keepends=True)), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    # COLUMNS would set the width of click's --help text
    env = {k: v for k, v in os.environ.items() if k not in ("TFMN_LEXICON_DIR", "COLUMNS")}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copy_inputs(src / "tfmn" / "data", work)
        for args in COMMANDS:
            run = subprocess.run([sys.executable, "-m", "tfmn.cli", *args], cwd=work, env=env,
                                 capture_output=True)
            stderr = WARNING.sub(rb"\1", run.stderr)
            print(f"exit {run.returncode}  stdout {sha256(run.stdout)}  stderr {sha256(stderr)}  "
                  f"{' '.join(args)}")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"{sha256(path.read_bytes())}  {path.relative_to(work).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
