"""The package's public API: the names `import tfmn` exports, each the
object of its home submodule, and the names perfbench's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import tfmn

HOMES = {
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
}
EXPORTED = [name for names in HOMES.values() for name in names]


def test_all_lists_the_exported_names_and_the_version():
    assert sorted(tfmn.__all__) == sorted([*EXPORTED, "__version__"])
    assert len(tfmn.__all__) == len(set(tfmn.__all__))


def test_dir_lists_the_public_names():
    assert sorted(dir(tfmn)) == sorted(tfmn.__all__)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOMES.items() for n in names])
def test_each_name_is_the_object_of_its_home_module(module, name):
    assert getattr(tfmn, name) is getattr(getattr(tfmn, module), name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tfmn import *", namespace)
    assert set(tfmn.__all__) <= set(namespace)
    assert namespace["stem"] is tfmn.stemmer.stem and namespace["__version__"] == tfmn.__version__


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tfmn.no_such_name  # noqa: B018
    assert not hasattr(tfmn, "read_graphml")  # defined in tfmn.build, not exported


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves():
    """`perfbench/run.py --trace` wraps these names; one that is gone breaks the trace."""
    tracer = _tracer()
    missing = [f"tfmn.{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"tfmn.{layer}"), name, None))]
    missing += [f"tfmn.build.MultiplexLexicalNetwork.{name}" for name in tracer.TRACED_METHODS
                if not callable(getattr(tfmn.build.MultiplexLexicalNetwork, name, None))]
    assert missing == []
