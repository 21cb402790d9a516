"""Command-line surface for the pipeline.

Subcommands: build, rank, aura, profile, communities, nulltest, benchmark,
export. Options can come from a key=value config file (--config); explicit
flags win. All randomness flows from a single --seed, fanned out
deterministically, and every output embeds the config hash and seed so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import __version__
from .analysis import (
    classify_edges,
    emotional_profile,
    louvain_partition,
    neighborhood_subgraph,
    valence_aura,
)
from .build import (
    build_network,
    config_hash,
    load_network,
    network_to_json,
    save_network,
    summary,
    write_graphml,
)
from .ingest import (
    RawDocument,
    UnparsedSentence,
    clean_document,
    filter_short,
    heuristic_parse,
    parse_conllu,
    read_text_corpus,
    split_sentences,
)
from .lexicons import (
    load_antonyms,
    load_emotion_lexicon,
    load_synonyms,
    load_valence_norms,
)
from .metrics import CentralityReport, centrality_report, rank_concepts, top_rows
from .stats import (
    benchmark_topic_relevance,
    clustering_null_test,
    load_free_associations,
)
from .stemmer import stem

DEFAULT_LEXICON_DIR_ENV = "TFMN_LEXICON_DIR"

BENCHMARK_TOPICS = {
    "interactions": "interaction",
    "emergence": "emergence",
    "dynamics": "dynamics",
    "self-organization": "organization",
    "adaptation": "adaptation",
    "interdisciplinarity": "interdisciplinary",
    "methods": "methods",
}


def _fail(message: str, **details) -> None:
    payload = {"error": message, **details}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(1)


class _Config(dict):
    """The key=value pairs of a config file, and the file's path."""

    def __init__(self, path: str | None = None):
        super().__init__()
        self.path = path


def _read_config(path: str | None) -> _Config:
    config = _Config(path)
    if not path:
        return config
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            _fail(f"config line {lineno}: expected key=value", file=path)
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _resolve(flag_value, config: _Config, key: str, default=None, cast=str):
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    try:
        return cast(config[key])
    except ValueError:
        _fail(f"config key {key!r}: expected {cast.__name__}, got {config[key]!r}", file=config.path)


def _lexicon_dir(value: str | None, config: _Config) -> Path:
    value = _resolve(value, config, "lexicon_dir")
    if value is None:
        value = os.environ.get(DEFAULT_LEXICON_DIR_ENV)
    if value is None:
        from importlib import resources

        return Path(str(resources.files("tfmn.data").joinpath("lexicons")))
    return Path(value)


def _load_lexicons(lexicon_dir: Path, scale=(1.0, 9.0)):
    for name in ("valence.csv", "emotions.tsv", "synonyms.tsv", "antonyms.tsv"):
        if not (lexicon_dir / name).exists():
            _fail(f"missing lexicon file {name}", lexicon_dir=str(lexicon_dir))
    return (
        load_valence_norms(lexicon_dir / "valence.csv", scale=scale),
        load_emotion_lexicon(lexicon_dir / "emotions.tsv"),
        load_synonyms(lexicon_dir / "synonyms.tsv"),
        load_antonyms(lexicon_dir / "antonyms.tsv"),
    )


def _parse_corpus(corpus: Path, corpus_format: str, min_words: int):
    """Returns (sentences, ingest stats)."""
    if corpus_format == "text":
        return _parse_documents(read_text_corpus(corpus), min_words)
    if corpus_format != "conllu":
        _fail(f"unknown corpus format {corpus_format!r}")
    sentences, rejections = parse_conllu(corpus)
    documents = len({s.doc_id for s in sentences})
    return sentences, {"documents": documents, "dropped_short": 0, "unparsed_sentences": 0,
                       "rejected": len(rejections)}


def _parse_documents(docs: list[RawDocument], min_words: int):
    """Clean, filter, split and heuristically parse plain-text documents;
    returns (sentences, ingest stats)."""
    docs, dropped = filter_short([clean_document(d) for d in docs], min_words)
    stats = {"documents": len(docs), "dropped_short": dropped, "unparsed_sentences": 0, "rejected": 0}
    sentences = []
    for doc in docs:
        for i, sent in enumerate(split_sentences(doc.text)):
            try:
                sentences.append(heuristic_parse(sent, doc_id=f"{doc.id}-{i}"))
            except UnparsedSentence:
                stats["unparsed_sentences"] += 1
    return sentences, stats


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1, allow_nan=False), encoding="utf-8")


def _load_network_or_fail(path: str):
    try:
        return load_network(path)
    except (OSError, ValueError) as exc:
        _fail(str(exc), network=str(path))


def _stamp(payload: dict, digest: str, seed: int | None) -> dict:
    payload["config_hash"] = digest
    if seed is not None:
        payload["seed"] = seed
    return payload


def _resolve_targets(net, targets: tuple[str, ...]) -> tuple[list[str], list[str]]:
    known, unknown = [], []
    for raw in targets:
        candidate = raw.lower()
        if candidate not in net.nodes and candidate.isalpha():
            candidate = stem(candidate)
        (known if candidate in net.nodes else unknown).append(
            candidate if candidate in net.nodes else raw
        )
    return known, unknown


class _JsonErrorGroup(click.Group):
    """Turns a usage error (a missing subcommand too), an OSError or a
    ValueError in any subcommand into one JSON line on stderr and exit code 1;
    --help and --version exit as usual."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc.format_message())
        except (OSError, ValueError) as exc:
            _fail(str(exc))


@click.group(cls=_JsonErrorGroup, no_args_is_help=False)
@click.version_option(__version__)
def main():
    """Build and analyse textual forma mentis networks."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--corpus", type=click.Path(exists=True), default=None)
@click.option("--corpus-format", type=click.Choice(["text", "conllu"]), default=None)
@click.option("--lexicon-dir", type=click.Path(), default=None)
@click.option("--min-words", type=int, default=None)
@click.option("--corpus-id", default=None)
@click.option("--out-dir", type=click.Path(), default=None)
def build(config_path, corpus, corpus_format, lexicon_dir, min_words, corpus_id, out_dir):
    """Build a network from a corpus; writes JSON, GraphML and a summary."""
    config = _read_config(config_path)
    corpus = _resolve(corpus, config, "corpus")
    if corpus is None or not Path(corpus).exists():
        _fail("corpus path missing or does not exist", corpus=str(corpus))
    corpus_format = _resolve(corpus_format, config, "corpus_format", "text")
    min_words = _resolve(min_words, config, "min_words", 3, int)
    corpus_id = _resolve(corpus_id, config, "corpus_id", Path(corpus).stem)
    out_dir = Path(_resolve(out_dir, config, "out_dir", "."))
    lexicon_dir = _lexicon_dir(lexicon_dir, config)

    settings = {
        "command": "build",
        "corpus": str(corpus),
        "corpus_format": corpus_format,
        "min_words": min_words,
        "corpus_id": corpus_id,
        "lexicon_dir": str(lexicon_dir),
    }
    digest = config_hash(settings)

    valence, emotions, synonyms, _ = _load_lexicons(lexicon_dir)
    try:
        sentences, ingest_stats = _parse_corpus(Path(corpus), corpus_format, min_words)
        net = build_network(
            sentences, valence, emotions, synonyms,
            corpus_id=corpus_id,
            config={**settings, "config_hash": digest},
        )
    except ValueError as exc:
        _fail(str(exc), corpus=str(corpus))

    out_dir.mkdir(parents=True, exist_ok=True)
    save_network(net, out_dir / f"{corpus_id}.network.json")
    write_graphml(net, out_dir / f"{corpus_id}.network.graphml")
    _write_json(
        out_dir / f"{corpus_id}.summary.json",
        _stamp({**summary(net), "ingest": ingest_stats}, digest, None),
    )
    click.echo(f"built {corpus_id}: {len(net.nodes)} nodes, "
               f"{len(net.syntactic_edges)} syntactic / {len(net.synonym_edges)} synonym edges")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--top-k", type=int, default=None)
@click.option("--layer-mode", type=click.Choice(["aggregate", "syntactic_only", "synonym_only"]), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def rank(config_path, network_path, top_k, layer_mode, out_path):
    """Closeness ranking of the largest connected component."""
    config = _read_config(config_path)
    top_k = _resolve(top_k, config, "top_k", 10, int)
    layer_mode = _resolve(layer_mode, config, "layer_mode", "aggregate")
    net = _load_network_or_fail(network_path)
    try:
        rows = top_rows(net, top_k, layer_mode)
    except ValueError as exc:
        _fail(str(exc), network=str(network_path))
    settings = {"command": "rank", "network": net.provenance.get("config_hash", ""),
                "top_k": top_k, "layer_mode": layer_mode}
    for s, c, _, _ in rows:
        click.echo(f"{s}\t{c:.6f}")
    if out_path:
        CentralityReport(rows=rows).write_csv(out_path)
        _write_json(
            Path(out_path).with_suffix(".json"),
            _stamp({"ranking": [[s, c] for s, c, _, _ in rows]}, config_hash(settings), None),
        )


@main.command()
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--targets", required=True, help="comma-separated concepts")
@click.option("--out", "out_path", type=click.Path(), default=None)
def aura(network_path, targets, out_path):
    """Valence auras of target concepts."""
    net = _load_network_or_fail(network_path)
    known, unknown = _resolve_targets(net, tuple(t.strip() for t in targets.split(",") if t.strip()))
    try:
        reports = [valence_aura(net, t).to_dict() for t in known]
    except ValueError as exc:
        _fail(str(exc), network=str(network_path))
    payload = {"auras": reports, "unknown_targets": unknown}
    for r in reports:
        click.echo(f"{r['target']}\t{r['aura']}")
    if out_path:
        _write_json(Path(out_path), payload)
    if unknown:
        click.echo(f"unknown targets: {', '.join(unknown)}", err=True)
        if not known:
            sys.exit(1)


@main.command()
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--targets", required=True)
@click.option("--lexicon-dir", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), default=".")
def profile(network_path, targets, lexicon_dir, out_dir):
    """Emotional profiles of target concepts, with chart data per target."""
    net = _load_network_or_fail(network_path)
    _, emotions, _, antonyms = _load_lexicons(_lexicon_dir(lexicon_dir, _Config()))
    known, unknown = _resolve_targets(net, tuple(t.strip() for t in targets.split(",") if t.strip()))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for target in known:
        prof = emotional_profile(net, target, emotions, antonyms)
        _write_json(out / f"{target}.profile.json", prof.to_dict())
        _write_json(out / f"{target}.chart.json", {"emotion_fractions": prof.fractions})
        top = sorted(prof.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        click.echo(f"{target}\t" + ", ".join(f"{e}={n}" for e, n in top))
    if unknown:
        _write_json(out / "unknown_targets.json", {"unknown_targets": unknown})
        click.echo(f"unknown targets: {', '.join(unknown)}", err=True)
        if not known:
            sys.exit(1)


@main.command()
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=0)
@click.option("--target", default=None, help="also write this target's community subgraph")
@click.option("--out", "out_path", type=click.Path(), default=None)
def communities(network_path, seed, target, out_path):
    """Louvain communities of the aggregate graph."""
    net = _load_network_or_fail(network_path)
    try:
        partition = louvain_partition(net, seed=seed)
    except ValueError as exc:
        _fail(str(exc), network=str(network_path))
    n_comm = len(set(partition.communities.values()))
    click.echo(f"{n_comm} communities, modularity {partition.modularity_value:.4f}")
    payload = {
        "communities": partition.communities,
        "modularity": partition.modularity_value,
        "seed": seed,
    }
    if target:
        known, unknown = _resolve_targets(net, (target,))
        if not known:
            _fail("unknown target", target=target)
        sub = neighborhood_subgraph(net, known[0], mode="community", partition=partition)
        payload["target_community"] = sorted(sub.nodes)
        payload["edge_classes"] = {f"{a}|{b}": cls for (a, b), cls in classify_edges(sub).items()}
    if out_path:
        _write_json(Path(out_path), payload)


@main.command()
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--realizations", type=int, default=50)
@click.option("--seed", type=int, default=0)
@click.option("--swaps-per-edge", type=int, default=10)
@click.option("--out", "out_path", type=click.Path(), default=None)
def nulltest(network_path, realizations, seed, swaps_per_edge, out_path):
    """Mean clustering against a configuration-model ensemble."""
    net = _load_network_or_fail(network_path)
    settings = {"command": "nulltest", "network": net.provenance.get("config_hash", ""),
                "realizations": realizations, "seed": seed, "swaps_per_edge": swaps_per_edge}
    report = clustering_null_test(net, realizations, seed, swaps_per_edge)
    click.echo(
        f"clustering {report['empirical_clustering']:.3f} "
        f"({report['ensemble_mean']:.3f} +/- {report['ensemble_std']:.3f} for configuration models)"
    )
    if out_path:
        _write_json(Path(out_path), _stamp(report, config_hash(settings), seed))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--paragraph-dir", type=click.Path(exists=True), default=None,
              help="directory of <topic>.txt paragraphs; defaults to the bundled benchmark")
@click.option("--oracle", "oracle_path", type=click.Path(exists=True), default=None)
@click.option("--lexicon-dir", type=click.Path(), default=None)
@click.option("--top-k", type=int, default=None)
@click.option("--realizations", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(), default=None)
def benchmark(config_path, paragraph_dir, oracle_path, lexicon_dir, top_k, realizations, seed, out_dir):
    """Topic-relevance benchmark: build paragraph networks, rank, and test
    ranked-stem distances on the free-association oracle against rewired nulls."""
    from importlib import resources

    config = _read_config(config_path)
    bundled = Path(str(resources.files("tfmn.data").joinpath("benchmark")))
    paragraph_dir = Path(_resolve(paragraph_dir, config, "paragraph_dir", bundled))
    oracle_path = Path(_resolve(oracle_path, config, "oracle", bundled / "free_associations.tsv"))
    top_k = _resolve(top_k, config, "top_k", 10, int)
    realizations = _resolve(realizations, config, "realizations", 50, int)
    seed = _resolve(seed, config, "seed", 0, int)
    out_dir = Path(_resolve(out_dir, config, "out_dir", "."))
    lexicon_dir = _lexicon_dir(lexicon_dir, config)

    settings = {
        "command": "benchmark",
        "paragraph_dir": str(paragraph_dir),
        "oracle": str(oracle_path),
        "top_k": top_k,
        "realizations": realizations,
        "seed": seed,
        "lexicon_dir": str(lexicon_dir),
    }
    digest = config_hash(settings)
    valence, emotions, synonyms, _ = _load_lexicons(lexicon_dir)
    oracle = load_free_associations(oracle_path)

    out_dir.mkdir(parents=True, exist_ok=True)
    rankings = {}
    sizes = {}
    for path in sorted(paragraph_dir.glob("*.txt")):
        topic_word = BENCHMARK_TOPICS.get(path.stem, path.stem)
        doc = RawDocument(id=path.stem, text=path.read_text(encoding="utf-8"))
        sentences, _ = _parse_documents([doc], min_words=1)
        net = build_network(
            sentences, valence, emotions, synonyms,
            corpus_id=path.stem, config={**settings, "config_hash": digest},
        )
        save_network(net, out_dir / f"{path.stem}.network.json")
        topic_stem = stem(topic_word)
        rankings[topic_stem] = [s for s, _ in rank_concepts(net, top_k)]
        sizes[path.stem] = len(net.nodes)
    report = benchmark_topic_relevance(rankings, oracle, realizations, seed)
    report["paragraph_sizes"] = sizes
    _write_json(out_dir / "benchmark.json", _stamp(report, digest, seed))
    click.echo(
        f"empirical median {report['empirical_median']:.1f} vs null {report['null_median']:.1f}, "
        f"U={report['mann_whitney']['U']:.0f}, p={report['mann_whitney']['p_value']:.4g}"
    )


@main.command()
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--format", "fmt", type=click.Choice(["graphml", "json", "csv"]), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def export(network_path, fmt, out_path):
    """Re-export a network file as GraphML, JSON or a centrality CSV."""
    net = _load_network_or_fail(network_path)
    if fmt == "graphml":
        write_graphml(net, out_path)
    elif fmt == "json":
        Path(out_path).write_text(network_to_json(net), encoding="utf-8")
    else:
        centrality_report(net).write_csv(out_path)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
