"""Textual forma mentis networks.

Builds two-layer (syntactic + synonym) lexical graphs with valence and
emotion enrichment from text corpora, and provides the analysis suite:
closeness rankings, valence auras, emotional profiles, Louvain
communities and configuration-model significance tests.
"""

from .build import (
    Concept,
    MultiplexLexicalNetwork,
    build_network,
    extract_syntactic_edges,
    load_network,
    save_network,
)
from .ingest import ParsedSentence, RawDocument, Token, clean_document, filter_short, heuristic_parse, parse_conllu
from .lexicons import (
    EMOTIONS,
    AntonymLexicon,
    EmotionLexicon,
    SynonymLexicon,
    ValenceLexicon,
    load_antonyms,
    load_emotion_lexicon,
    load_synonyms,
    load_valence_norms,
)
from .metrics import mean_clustering, rank_concepts
from .analysis import emotional_profile, louvain_partition, neighborhood_subgraph, valence_aura
from .stats import (
    benchmark_topic_relevance,
    clustering_null_test,
    configuration_rewire,
    load_free_associations,
    mann_whitney_u,
)
from .stemmer import stem

__version__ = "0.1.0"
