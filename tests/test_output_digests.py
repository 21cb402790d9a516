"""Byte-identity of every command's output: the listing that
tools/output_digests.py prints for this checkout's `src` equals the one
committed as tests/data/output_digests.txt, on every usable CPU with
PYTHONHASHSEED=1 and pinned to one CPU with PYTHONHASHSEED=2, so that
neither the worker count nor the hash seed reaches an output. A change that
alters outputs on purpose updates that file, and the lines that differ name
what changed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"
LISTING = ROOT / "tests" / "data" / "output_digests.txt"


def name(line: str) -> str:
    """The command of an `exit ...` line, or the path of a `sha256  path` line."""
    return line.split("  ", 3)[3] if line.startswith("exit ") else line.split("  ", 1)[1]


def by_name(listing: str) -> dict[str, str]:
    return {name(line): line for line in listing.splitlines()}


def one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("pin, hash_seed", [(None, "1"), (one_cpu, "2")],
                         ids=["usable_cpus", "one_cpu"])
def test_outputs_match_the_committed_listing(pin, hash_seed):
    if pin is not None and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src")], capture_output=True,
                         text=True, timeout=120, preexec_fn=pin,
                         env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert run.returncode == 0, run.stderr
    expected, actual = by_name(LISTING.read_text()), by_name(run.stdout)
    differing = [key for key in {**expected, **actual} if expected.get(key) != actual.get(key)]
    assert not differing, f"outputs differ from {LISTING.name}: {differing}"
    assert run.stdout == LISTING.read_text()
