"""Run one `tfmn` command with spans recorded around the calls into each layer.

Usage: python3 tracer.py SPANS_OUT tfmn-arguments...

The wrappers are installed from here, at the names each module calls
(`tfmn.build.stem`, `tfmn.cli.build_network`, the methods of
`MultiplexLexicalNetwork`, ...), so the package itself is not edited. Spans
are kept in memory, each as [name index, start, end, parent index], and
written to SPANS_OUT as JSON when the command ends, together with a few
counters taken at the same boundaries. The command's own exit code is kept.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# layer -> public functions whose calls are recorded
TRACED = {
    "ingest": ("read_text_corpus", "clean_document", "filter_short", "split_sentences",
               "heuristic_parse", "parse_conllu"),
    "stemmer": ("stem",),
    "lexicons": ("load_valence_norms", "load_emotion_lexicon", "load_synonyms", "load_antonyms"),
    "build": ("extract_syntactic_edges", "add_synonym_layer", "build_network", "summary",
              "network_to_json", "network_from_json", "load_network", "save_network",
              "write_graphml", "read_graphml"),
    "metrics": ("shortest_paths", "closeness", "rank_concepts", "centrality_report",
                "mean_clustering"),
    "analysis": ("valence_aura", "emotional_profile", "louvain_partition",
                 "neighborhood_subgraph", "classify_edges"),
    "stats": ("configuration_rewire", "rewire_graph", "null_ensemble", "mann_whitney_u",
              "load_free_associations", "benchmark_topic_relevance", "clustering_null_test"),
}
TRACED_METHODS = ("aggregate_graph", "layer_graph")  # of build.MultiplexLexicalNetwork
ROOT_SPAN = "cli.main"


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.stem_inputs: set[str] = set()

    def open(self, name: str) -> int:
        idx = self.name_index.get(name)
        if idx is None:
            idx = self.name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.spans)
        self.spans.append([idx, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.spans[span][2] = perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(name + ".raised")
                raise
            finally:
                self.close(span)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str, exit_code: int) -> None:
        payload = {
            "names": self.names,
            "spans": self.spans,
            "counters": {**self.counters, "stemmer.stem.distinct_inputs": len(self.stem_inputs)},
            "exit_code": exit_code,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _observe_stem(rec: Recorder, args, kwargs, result) -> None:
    rec.stem_inputs.add(args[0] if args else kwargs["word"])


def _observe_rewire(rec: Recorder, args, kwargs, result) -> None:
    """Swaps done against the swap target, from the realization's provenance."""
    net = args[0]
    swaps_per_edge = args[2] if len(args) > 2 else kwargs.get("swaps_per_edge", 10)
    done = result.provenance["null_model"]["swaps"]
    for layer_size, swaps in zip((len(net.syntactic_edges), len(net.synonym_edges)), done):
        if layer_size >= 2:
            rec.count("stats.swaps_target", swaps_per_edge * layer_size)
            rec.count("stats.swaps_done", swaps)


_OBSERVERS = {"stemmer.stem": _observe_stem, "stats.configuration_rewire": _observe_rewire}


def install(rec: Recorder) -> None:
    """Replace every traced function at each module attribute bound to it."""
    from tfmn import build

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "tfmn" or name.startswith("tfmn."))]
    for layer, functions in TRACED.items():
        home = sys.modules[f"tfmn.{layer}"]
        for fname in functions:
            original = getattr(home, fname)
            wrapped = rec.wrap(f"{layer}.{fname}", original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapped)
    for mname in TRACED_METHODS:
        cls = build.MultiplexLexicalNetwork
        setattr(cls, mname, rec.wrap(f"build.{mname}", getattr(cls, mname)))


def main(argv: list[str]) -> int:
    spans_out, args = argv[0], argv[1:]
    import tfmn.cli

    rec = Recorder()
    install(rec)
    code = 1  # unless the command exits normally
    root = rec.open(ROOT_SPAN)
    try:
        tfmn.cli.main.main(args=args, prog_name="tfmn", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        rec.close(root)
        rec.dump(spans_out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
