import importlib.util
import os
import random
from pathlib import Path

import pytest

import tfmn
from tfmn import stats
from tfmn.build import MultiplexLexicalNetwork, Concept
from tfmn.lexicons import (
    load_antonyms,
    load_emotion_lexicon,
    load_synonyms,
    load_valence_norms,
)

DATA = Path(tfmn.__file__).parent / "data"
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    """tools/<name>.py, run as a module named tool_<name>, not as __main__."""
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

# Seven documents, which split 3 + 4 over two workers and 2 + 2 + 3 over
# three: f2 is dropped as short, "Wow." is left unparsed, "Love loves love."
# gives no edge (its one stem pair is a self-pair), and (joi, love) occurs in
# f1 and again in f7, each time in another chunk.
FORKED_CORPUS = (
    "f1\tLove is joy. Success is victory.\n"
    "f2\tno way\n"
    "f3\tWow. Fear is pain. Loss is grief.\n"
    "f4\tLove loves love. Science is hard.\n"
    "f5\tHope is success. Mathematics is not impossible.\n"
    "f6\tthe cat sat on the chair\n"
    "f7\tLove is joy. Grief is pain.\n"
)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def lexicon_dir() -> Path:
    return DATA / "lexicons"


@pytest.fixture(scope="session")
def valence(lexicon_dir):
    return load_valence_norms(lexicon_dir / "valence.csv")


@pytest.fixture(scope="session")
def emotions(lexicon_dir):
    return load_emotion_lexicon(lexicon_dir / "emotions.tsv")


@pytest.fixture(scope="session")
def synonyms(lexicon_dir):
    return load_synonyms(lexicon_dir / "synonyms.tsv")


@pytest.fixture(scope="session")
def antonyms(lexicon_dir):
    return load_antonyms(lexicon_dir / "antonyms.tsv")


def make_network(
    syntactic: dict[tuple[str, str], int] | set,
    synonym: set | None = None,
    labels: dict[str, str] | None = None,
    emotions_by_stem: dict[str, set[str]] | None = None,
    negations: set[str] = frozenset({"not", "no", "never"}),
) -> MultiplexLexicalNetwork:
    """Hand-build a small network for unit tests."""
    if isinstance(syntactic, set):
        syntactic = {pair: 1 for pair in syntactic}
    synonym = synonym or set()
    labels = labels or {}
    emotions_by_stem = emotions_by_stem or {}
    stems = {s for pair in list(syntactic) + list(synonym) for s in pair}
    nodes = {
        s: Concept(
            stem=s,
            valence_label=labels.get(s, "unrated"),
            valence_score=None,
            emotions=frozenset(emotions_by_stem.get(s, set())),
            is_negation_marker=s in negations,
        )
        for s in stems
    }
    net = MultiplexLexicalNetwork(
        nodes=nodes,
        syntactic_edges={(min(a, b), max(a, b)): c for (a, b), c in syntactic.items()},
        synonym_edges={(min(a, b), max(a, b)) for a, b in synonym},
        provenance={"corpus_id": "test", "config": {}, "config_hash": "test"},
    )
    net.validate()
    return net


def failing_kernel(bad_seed: int):
    """stats._rewire_ids, raising ValueError("bad seed <bad_seed>") in the first
    rewire of the realization seeded bad_seed."""
    original = stats._rewire_ids

    def failing(lo, hi, n, rng, swaps_per_edge):
        if rng.getstate() == random.Random(bad_seed).getstate():
            raise ValueError(f"bad seed {bad_seed}")
        return original(lo, hi, n, rng, swaps_per_edge)

    return failing


@pytest.fixture()
def workers(monkeypatch):
    """Sets the usable CPU count, and with it the worker count, to k."""
    def force(k):
        monkeypatch.setattr("tfmn.workers._usable_cpus", lambda: k)
    return force


@pytest.fixture()
def stage_items():
    """Empties tfmn.stage_times and gives a function that returns the record
    as {stage: items} and empties it again."""
    def take() -> dict[str, int]:
        items = {name: n for name, (_, n) in tfmn.stage_times.items()}
        tfmn.stage_times.clear()
        return items

    take()
    yield take
    take()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
