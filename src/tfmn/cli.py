"""Command-line surface for the pipeline.

Subcommands: build, rank, aura, profile, communities, nulltest, benchmark,
export. build, rank and benchmark also take option values from a key=value
config file (--config); explicit flags win. All randomness flows from a
single --seed, fanned out deterministically, so identical runs produce
byte-identical files. The config hash is stamped on the build summary and
network provenance, the rank JSON, and the nulltest and benchmark reports,
which also carry the seed; communities output carries the seed only, and
aura, profile and the export CSV carry neither.
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


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Eager callback of --config: loads the file's key=value pairs into
    ctx.default_map, so flags still win. Each key that names one of the
    command's options is checked by that option's own type; other keys are
    ignored."""
    if path is None:
        return
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        _fail(str(exc), file=path)
    options = {p.name: p for p in ctx.command.params if p.expose_value}
    ctx.default_map = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            _fail(f"config line {lineno}: expected key=value", file=path)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in options:
            try:
                ctx.default_map[key] = options[key].type.convert(value, options[key], ctx)
            except click.BadParameter as exc:
                _fail(f"config key {key!r}: {exc.message}", file=path)


_config_option = click.option(
    "--config", type=click.Path(exists=True), is_eager=True, expose_value=False,
    callback=_read_config, help="key=value file of option defaults; flags win",
)
_network_option = click.option("--network", type=click.Path(exists=True), required=True)
_lexicon_dir_option = click.option("--lexicon-dir", type=click.Path(), default=None)


def _lexicon_dir(value: str | None) -> Path:
    if value is None:
        value = os.environ.get(DEFAULT_LEXICON_DIR_ENV)
    if value is None:
        from importlib import resources

        return Path(str(resources.files("tfmn.data").joinpath("lexicons")))
    return Path(value)


def _parse_corpus(corpus: Path, corpus_format: str, min_words: int):
    """Returns (sentences, ingest stats)."""
    if corpus_format == "text":
        return _parse_documents(read_text_corpus(corpus), min_words)
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


def _stamp(payload: dict, digest: str, seed: int | None) -> dict:
    payload["config_hash"] = digest
    if seed is not None:
        payload["seed"] = seed
    return payload


def _resolve_target(net, raw: str) -> str | None:
    """The node `raw` names: itself lower-cased, else its stem, else None."""
    candidate = raw.lower()
    if candidate not in net.nodes and candidate.isalpha():
        candidate = stem(candidate)
    return candidate if candidate in net.nodes else None


def _resolve_targets(net, targets: str) -> tuple[list[str], list[str]]:
    """Splits comma-separated targets into (known nodes, unknown raw names),
    each once in first-seen order; fails when the string names no target at all."""
    raws = [t.strip() for t in targets.split(",") if t.strip()]
    if not raws:
        _fail("no targets given", targets=targets)
    known, unknown = [], []
    for raw in raws:
        node = _resolve_target(net, raw)
        if node is None:
            unknown.append(raw)
        else:
            known.append(node)
    return list(dict.fromkeys(known)), list(dict.fromkeys(unknown))


class _JsonErrorCommand(click.Command):
    """Turns an OSError or a ValueError raised while the command runs into one
    JSON line on stderr and exit code 1, naming the network or corpus the
    command was given."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            _fail(str(exc), **{k: str(v) for k, v in ctx.params.items()
                               if k in ("network", "corpus") and v is not None})


class _JsonErrorGroup(click.Group):
    """Turns a usage error (a missing subcommand or option, a bad flag value)
    into one JSON line on stderr and exit code 1; --help and --version exit as
    usual. Errors while a subcommand runs are caught by its command class."""

    command_class = _JsonErrorCommand

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc.format_message())


@click.group(cls=_JsonErrorGroup, no_args_is_help=False)
@click.version_option(__version__)
def main():
    """Build and analyse textual forma mentis networks."""


@main.command()
@_config_option
@click.option("--corpus", type=click.Path(exists=True), required=True)
@click.option("--corpus-format", type=click.Choice(["text", "conllu"]), default="text")
@_lexicon_dir_option
@click.option("--min-words", type=int, default=3)
@click.option("--corpus-id", default=None)
@click.option("--out-dir", type=click.Path(), default=".")
def build(corpus, corpus_format, lexicon_dir, min_words, corpus_id, out_dir):
    """Build a network from a corpus; writes JSON, GraphML and a summary."""
    corpus_id = corpus_id if corpus_id is not None else Path(corpus).stem
    out_dir = Path(out_dir)
    lexicon_dir = _lexicon_dir(lexicon_dir)

    settings = {
        "command": "build",
        "corpus": str(corpus),
        "corpus_format": corpus_format,
        "min_words": min_words,
        "corpus_id": corpus_id,
        "lexicon_dir": str(lexicon_dir),
    }
    digest = config_hash(settings)

    valence = load_valence_norms(lexicon_dir / "valence.csv")
    emotions = load_emotion_lexicon(lexicon_dir / "emotions.tsv")
    synonyms = load_synonyms(lexicon_dir / "synonyms.tsv")
    sentences, ingest_stats = _parse_corpus(Path(corpus), corpus_format, min_words)
    net = build_network(
        sentences, valence, emotions, synonyms,
        corpus_id=corpus_id,
        config={**settings, "config_hash": digest},
    )

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
@_config_option
@_network_option
@click.option("--top-k", type=click.IntRange(min=1), default=10)
@click.option("--layer-mode", type=click.Choice(["aggregate", "syntactic_only", "synonym_only"]),
              default="aggregate")
@click.option("--out", type=click.Path(), default=None)
def rank(network, top_k, layer_mode, out):
    """Closeness ranking of the largest connected component."""
    net = load_network(network)
    rows = top_rows(net, top_k, layer_mode)
    settings = {"command": "rank", "network": net.provenance.get("config_hash", ""),
                "top_k": top_k, "layer_mode": layer_mode}
    for s, c, _, _ in rows:
        click.echo(f"{s}\t{c:.6f}")
    if out:
        CentralityReport(rows=rows).write_csv(out)
        _write_json(
            Path(out).with_suffix(".json"),
            _stamp({"ranking": [[s, c] for s, c, _, _ in rows]}, config_hash(settings), None),
        )


@main.command()
@_network_option
@click.option("--targets", required=True, help="comma-separated concepts")
@click.option("--out", type=click.Path(), default=None)
def aura(network, targets, out):
    """Valence auras of target concepts."""
    net = load_network(network)
    known, unknown = _resolve_targets(net, targets)
    reports = [valence_aura(net, t).to_dict() for t in known]
    payload = {"auras": reports, "unknown_targets": unknown}
    for r in reports:
        click.echo(f"{r['target']}\t{r['aura']}")
    if out:
        _write_json(Path(out), payload)
    if unknown:
        click.echo(f"unknown targets: {', '.join(unknown)}", err=True)
        if not known:
            sys.exit(1)


@main.command()
@_network_option
@click.option("--targets", required=True, help="comma-separated concepts")
@_lexicon_dir_option
@click.option("--out-dir", type=click.Path(), default=".")
def profile(network, targets, lexicon_dir, out_dir):
    """Emotional profiles of target concepts, with chart data per target."""
    net = load_network(network)
    lexicon_dir = _lexicon_dir(lexicon_dir)
    emotions = load_emotion_lexicon(lexicon_dir / "emotions.tsv")
    antonyms = load_antonyms(lexicon_dir / "antonyms.tsv")
    known, unknown = _resolve_targets(net, targets)
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
@_network_option
@click.option("--seed", type=int, default=0)
@click.option("--target", default=None, help="also write this target's community subgraph")
@click.option("--out", type=click.Path(), default=None)
def communities(network, seed, target, out):
    """Louvain communities of the aggregate graph."""
    net = load_network(network)
    node = _resolve_target(net, target) if target else None
    if target and node is None:
        _fail("unknown target", target=target)
    partition = louvain_partition(net, seed=seed)
    n_comm = len(set(partition.communities.values()))
    click.echo(f"{n_comm} communities, modularity {partition.modularity_value:.4f}")
    payload = {
        "communities": partition.communities,
        "modularity": partition.modularity_value,
        "seed": seed,
    }
    if node is not None:
        sub = neighborhood_subgraph(net, node, mode="community", partition=partition)
        payload["target_community"] = sorted(sub.nodes)
        payload["edge_classes"] = {f"{a}|{b}": cls for (a, b), cls in classify_edges(sub).items()}
    if out:
        _write_json(Path(out), payload)


@main.command()
@_network_option
@click.option("--realizations", type=click.IntRange(min=2), default=50)
@click.option("--seed", type=int, default=0)
@click.option("--swaps-per-edge", type=int, default=10)
@click.option("--out", type=click.Path(), default=None)
def nulltest(network, realizations, seed, swaps_per_edge, out):
    """Mean clustering against a configuration-model ensemble."""
    net = load_network(network)
    settings = {"command": "nulltest", "network": net.provenance.get("config_hash", ""),
                "realizations": realizations, "seed": seed, "swaps_per_edge": swaps_per_edge}
    report = clustering_null_test(net, realizations, seed, swaps_per_edge)
    click.echo(
        f"clustering {report['empirical_clustering']:.3f} "
        f"({report['ensemble_mean']:.3f} +/- {report['ensemble_std']:.3f} for configuration models)"
    )
    if out:
        _write_json(Path(out), _stamp(report, config_hash(settings), seed))


@main.command()
@_config_option
@click.option("--paragraph-dir", type=click.Path(exists=True), default=None,
              help="directory of <topic>.txt paragraphs; defaults to the bundled benchmark")
@click.option("--oracle", type=click.Path(exists=True), default=None)
@_lexicon_dir_option
@click.option("--top-k", type=click.IntRange(min=1), default=10)
@click.option("--realizations", type=click.IntRange(min=2), default=50)
@click.option("--seed", type=int, default=0)
@click.option("--out-dir", type=click.Path(), default=".")
def benchmark(paragraph_dir, oracle, lexicon_dir, top_k, realizations, seed, out_dir):
    """Topic-relevance benchmark: build paragraph networks, rank, and test
    ranked-stem distances on the free-association oracle against rewired nulls."""
    from importlib import resources

    bundled = Path(str(resources.files("tfmn.data").joinpath("benchmark")))
    paragraph_dir = Path(paragraph_dir if paragraph_dir is not None else bundled)
    oracle = Path(oracle if oracle is not None else bundled / "free_associations.tsv")
    out_dir = Path(out_dir)
    lexicon_dir = _lexicon_dir(lexicon_dir)
    paragraphs = sorted(paragraph_dir.glob("*.txt"))
    if not paragraphs:
        _fail("no <topic>.txt paragraph files", paragraph_dir=str(paragraph_dir))

    settings = {
        "command": "benchmark",
        "paragraph_dir": str(paragraph_dir),
        "oracle": str(oracle),
        "top_k": top_k,
        "realizations": realizations,
        "seed": seed,
        "lexicon_dir": str(lexicon_dir),
    }
    digest = config_hash(settings)
    valence = load_valence_norms(lexicon_dir / "valence.csv")
    emotions = load_emotion_lexicon(lexicon_dir / "emotions.tsv")
    synonyms = load_synonyms(lexicon_dir / "synonyms.tsv")
    associations = load_free_associations(oracle)

    out_dir.mkdir(parents=True, exist_ok=True)
    rankings = {}
    sizes = {}
    for path in paragraphs:
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
    report = benchmark_topic_relevance(rankings, associations, realizations, seed)
    report["paragraph_sizes"] = sizes
    _write_json(out_dir / "benchmark.json", _stamp(report, digest, seed))
    click.echo(
        f"empirical median {report['empirical_median']:.1f} vs null {report['null_median']:.1f}, "
        f"U={report['mann_whitney']['U']:.0f}, p={report['mann_whitney']['p_value']:.4g}"
    )


@main.command()
@_network_option
@click.option("--format", "fmt", type=click.Choice(["graphml", "json", "csv"]), required=True)
@click.option("--out", type=click.Path(), required=True)
def export(network, fmt, out):
    """Re-export a network file as GraphML, JSON or a centrality CSV."""
    net = load_network(network)
    if fmt == "graphml":
        write_graphml(net, out)
    elif fmt == "json":
        Path(out).write_text(network_to_json(net), encoding="utf-8")
    else:
        centrality_report(net).write_csv(out)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
