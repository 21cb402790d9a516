"""Textual forma mentis networks.

Builds two-layer (syntactic + synonym) lexical graphs with valence and
emotion enrichment from text corpora, and provides the analysis suite:
closeness rankings, valence auras, emotional profiles, Louvain
communities and configuration-model significance tests.

`import tfmn` binds the eight submodules and the names in `__all__`, but
executes none of them: each submodule is compiled and run on the first
access to one of its attributes, so a command pays only for the modules it
uses.

`stage_times` records where this process's time went, as {stage: [seconds,
items]}: each layer of the pipeline adds its time and the items it worked
on, and `workers.map_chunks` adds in what its forked children recorded. The
record is this process's alone; no output, stdout or stderr carries it.
"""

import importlib.util
import sys
from time import perf_counter

__version__ = "0.1.0"

stage_times: dict[str, list] = {}


def add_time(name: str, seconds: float, items: int) -> None:
    """Adds seconds and items to the stage's entry of `stage_times`."""
    entry = stage_times.setdefault(name, [0.0, 0])
    entry[0] += seconds
    entry[1] += items


class stage:
    """`with stage(name, items): ...` adds the block's time and items to the
    stage, also when the block raises."""

    __slots__ = ("name", "items", "start")

    def __init__(self, name: str, items: int) -> None:
        self.name, self.items = name, items

    def __enter__(self) -> None:
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        add_time(self.name, perf_counter() - self.start, self.items)


_EXPORTS = {
    "build": ("Concept", "MultiplexLexicalNetwork", "build_network", "extract_syntactic_edges",
              "load_network", "save_network"),
    "ingest": ("ParsedSentence", "RawDocument", "Token", "clean_document", "filter_short",
               "heuristic_parse", "parse_conllu"),
    "lexicons": ("EMOTIONS", "AntonymLexicon", "EmotionLexicon", "SynonymLexicon", "ValenceLexicon",
                 "load_antonyms", "load_emotion_lexicon", "load_synonyms", "load_valence_norms"),
    "metrics": ("mean_clustering", "rank_concepts"),
    "analysis": ("emotional_profile", "louvain_partition", "neighborhood_subgraph", "valence_aura"),
    "stats": ("benchmark_topic_relevance", "clustering_null_test", "configuration_rewire",
              "load_free_associations", "mann_whitney_u"),
    "stemmer": ("stem",),
    "workers": (),  # the fork helper of build and stats; no public name
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, "__version__"]

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
