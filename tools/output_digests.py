"""Print digests of everything the `tfmn` commands write, so that two
checkouts can be compared byte for byte with one `diff`.

Stdlib only; the commands themselves need what `tfmn` needs (click).

    python3 tools/output_digests.py SRC_DIR

SRC_DIR is a checkout's `src` directory. The bundled lexicons, synthetic
corpus, benchmark paragraphs and free-association oracle are copied from
SRC_DIR into a temporary directory, and each command runs there as
`python -m tfmn.cli` with SRC_DIR on PYTHONPATH, relative paths and an
explicit --lexicon-dir, --paragraph-dir and --oracle, so the paths stamped
into outputs are the same for every checkout. The commands: build; rank in
each layer mode; aura; profile; communities --seed 3 --target love; nulltest
--realizations 5 --seed 7; export in each format; benchmark --realizations 5
--seed 0. In this order, the script prints each command's exit code and the
sha256 of its stdout and stderr, then `sha256  path` of every file in the
directory, inputs included, in sorted path order. Two checkouts write the
same files and print the same text when

    diff <(python3 tools/output_digests.py a/src) <(python3 tools/output_digests.py b/src)

prints nothing.
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def copy_inputs(data: Path, work: Path) -> None:
    shutil.copytree(data / "lexicons", work / "lexicons")
    shutil.copy(data / "synthetic" / "corpus.txt", work / "corpus.txt")
    (work / "paragraphs").mkdir()
    for paragraph in sorted((data / "benchmark").glob("*.txt")):
        shutil.copy(paragraph, work / "paragraphs" / paragraph.name)
    shutil.copy(data / "benchmark" / "free_associations.tsv", work / "oracle.tsv")


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
