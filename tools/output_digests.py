"""Print digests of everything the `tfmn` commands write, so that two
checkouts can be compared byte for byte with one `diff`.

Stdlib only; the commands themselves need what `tfmn` needs (click).

    python3 tools/output_digests.py SRC_DIR

SRC_DIR is a checkout's `src` directory. The bundled lexicons, synthetic
corpus, benchmark paragraphs and free-association oracle are copied from
SRC_DIR into a temporary directory, together with TWEETS, a small fixed tweet-like corpus (emoji,
URLs, mentions, hashtags, contractions, negated copulas, non-ASCII letters)
that the bundled ASCII corpus lacks, and CONLLU, a small fixed parsed corpus
whose function words have dependants, so that `build --corpus-format conllu`
exercises chained contraction, which no heuristic tree does. Each command
runs there as `python -m tfmn.cli` with SRC_DIR on PYTHONPATH, relative
paths and an explicit --lexicon-dir, --paragraph-dir and --oracle, so the
paths stamped into outputs are the same for every checkout. The commands:
build of each corpus; rank in each layer mode; aura; profile; communities
--seed 3 --target love; nulltest --realizations 5 --seed 7; export in each
format; benchmark --realizations 5 --seed 0. In this order, the script prints each command's exit code and the
sha256 of its stdout and stderr, then `sha256  path` of every file in the
directory, inputs included, in sorted path order. Two checkouts write the
same files and print the same text when

    diff <(python3 tools/output_digests.py a/src) <(python3 tools/output_digests.py b/src)

prints nothing. nulltest and benchmark spread their realizations over one
process per usable CPU; their outputs do not depend on that count when

    diff <(taskset -c 0 python3 tools/output_digests.py src) <(python3 tools/output_digests.py src)

prints nothing, on a host with more than one CPU.
"""

from __future__ import annotations

import hashlib
import os
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
    ["build", "--corpus", "parsed.conllu", "--corpus-format", "conllu", "--corpus-id", "parsed",
     "--lexicon-dir", "lexicons", "--out-dir", "out"],
    *(["rank", "--network", NETWORK, "--layer-mode", mode, "--out", f"rank-{mode}.csv"]
      for mode in ("aggregate", "syntactic_only", "synonym_only")),
    ["aura", "--network", NETWORK, "--targets", "love,trust,zzz", "--out", "aura.json"],
    ["profile", "--network", NETWORK, "--targets", "love,trust,zzz", "--lexicon-dir", "lexicons",
     "--out-dir", "profile"],
    ["communities", "--network", NETWORK, "--seed", "3", "--target", "love", "--out", "communities.json"],
    ["nulltest", "--network", NETWORK, "--realizations", "5", "--seed", "7", "--out", "nulltest.json"],
    *(["export", "--network", NETWORK, "--format", fmt, "--out", f"export.{fmt}"]
      for fmt in ("graphml", "json", "csv")),
    ["benchmark", "--paragraph-dir", "paragraphs", "--oracle", "oracle.tsv", "--lexicon-dir", "lexicons",
     "--realizations", "5", "--seed", "0", "--out-dir", "bench"],
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def copy_inputs(data: Path, work: Path) -> None:
    shutil.copytree(data / "lexicons", work / "lexicons")
    shutil.copy(data / "synthetic" / "corpus.txt", work / "corpus.txt")
    (work / "paragraphs").mkdir()
    for paragraph in sorted((data / "benchmark").glob("*.txt")):
        shutil.copy(paragraph, work / "paragraphs" / paragraph.name)
    shutil.copy(data / "benchmark" / "free_associations.tsv", work / "oracle.tsv")
    (work / "tweets.txt").write_text(TWEETS, encoding="utf-8")
    (work / "parsed.conllu").write_text(
        "".join(line if line.startswith("#") else line.replace(" ", "\t")
                for line in CONLLU.splitlines(keepends=True)), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    env = {k: v for k, v in os.environ.items() if k != "TFMN_LEXICON_DIR"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copy_inputs(src / "tfmn" / "data", work)
        for args in COMMANDS:
            run = subprocess.run([sys.executable, "-m", "tfmn.cli", *args], cwd=work, env=env,
                                 capture_output=True)
            print(f"exit {run.returncode}  stdout {sha256(run.stdout)}  stderr {sha256(run.stderr)}  "
                  f"{' '.join(args)}")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"{sha256(path.read_bytes())}  {path.relative_to(work).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
