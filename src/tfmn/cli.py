"""Command-line surface for the pipeline.

Subcommands: build, rank, aura, profile, communities, nulltest, benchmark,
export. build, rank and benchmark also take option values from a key=value
config file (--config); explicit flags win. All randomness flows from a
single --seed, fanned out deterministically, so identical runs produce
byte-identical files. A config hash is stamped on the build summary, the
rank JSON, and the nulltest and benchmark reports, which also carry the seed
and the swaps per edge; communities output carries the seed only, and aura,
profile and the export CSV carry neither. A network's `provenance.config_hash`
hashes its `config`, which holds build's or benchmark's hash, so the two
differ; rank and nulltest hash the network's with their settings.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import sys
from collections import Counter
from pathlib import Path

import click

from . import __version__, analysis, ingest, lexicons, metrics, stage, stats, stemmer, workers
from . import build as builder

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
    """Prints one JSON error line on stderr and exits 1. The line names the
    network or corpus that the running command was given, once it is parsed."""
    given = {k: str(v) for k, v in click.get_current_context().params.items()
             if k in ("network", "corpus") and v is not None}
    payload = {"error": message, **given, **details}
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


class _CalledDefaultOption(click.Option):
    """An option whose callable default is called for --help too, which then
    shows its value instead of "(dynamic)"."""

    def get_default(self, ctx, call=True):
        return super().get_default(ctx, call=True)


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


def _check_corpus_id(corpus_id: str) -> None:
    """Fails before any work when --corpus-id would put a file outside --out-dir."""
    if corpus_id in ("", ".", "..") or any(sep and sep in corpus_id for sep in ("/", os.sep, os.altsep)):
        raise ValueError(f"--corpus-id must be a file name within --out-dir, got {corpus_id!r}")


def _check_out(out: str | None) -> None:
    """Fails before any work when the --out file's directory does not exist."""
    if out and not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(Path(out).parent))


def _write_json(path: Path, payload: dict) -> None:
    with stage("write_report", 1):
        path.write_text(json.dumps(payload, sort_keys=True, indent=1, allow_nan=False), encoding="utf-8")


def _write_rows(path: str, rows: list) -> None:
    with stage("write_report", 1), Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("stem", "closeness", "degree", "component_size"), *rows])


def _resolve_target(net, raw: str) -> str | None:
    """The node `raw` names: itself lower-cased, else its stem, else None."""
    candidate = raw.lower()
    if candidate not in net.nodes and candidate.isalpha():
        candidate = stemmer.stem(candidate)
    return candidate if candidate in net.nodes else None


def _resolve_targets(net, targets: str) -> tuple[list[str], list[str]]:
    """Splits comma-separated targets into (known nodes, unknown raw names),
    each once in first-seen order; fails when the string names no target at
    all, or no node."""
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
    known, unknown = list(dict.fromkeys(known)), list(dict.fromkeys(unknown))
    if not known:
        raise ValueError(f"unknown targets: {', '.join(unknown)}")
    return known, unknown


class _JsonErrorCommand(click.Command):
    """Turns an OSError or a ValueError raised while the command runs into one
    JSON line on stderr and exit code 1, naming the network or corpus the
    command was given."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            _fail(str(exc))


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

    def __call__(self, *args, **kwargs):
        """The program entry (the `tfmn` script, `python -m tfmn.cli`): runs
        main(...), and when it ends in click's SystemExit with an int or None
        code, flushes stdout and stderr and leaves through os._exit, skipping
        the interpreter's teardown of a heap about to be dropped. Every file
        a command writes is closed by then, and tfmn registers no atexit
        handler. Any other exception or exit code, and a flush that fails
        (a closed pipe), leave as SystemExit would. main.main(...) itself
        returns and raises as click's does.

        The cyclic garbage collector is off while the command runs, and so
        in the workers it forks; it is on again once main(...) returns or
        raises. Reference counting frees almost all a command makes: with
        the collector off, gc.collect() after build finds 95 objects on 500
        to 10,000 documents, and after benchmark 293 at 2 to 200
        realizations. main.main(...) leaves the collector as it finds it, so
        CliRunner, library callers and perfbench's traced rounds still
        collect, and perfbench's trace.overhead_s may rise by that."""
        import gc  # here, so that `import tfmn.cli` loads no new module

        gc.disable()
        try:
            return self.main(*args, **kwargs)
        except SystemExit as exc:
            code = exc.code
            if code is not None and not isinstance(code, int):
                raise
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            except Exception:
                raise SystemExit(code) from None
            os._exit(code or 0)
        finally:
            gc.enable()


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
    _check_corpus_id(corpus_id)
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
    digest = builder.config_hash(settings)

    with stage("lexicons", 3):
        valence = lexicons.load_valence_norms(lexicon_dir / "valence.csv")
        emotions = lexicons.load_emotion_lexicon(lexicon_dir / "emotions.tsv")
        synonyms = lexicons.load_synonyms(lexicon_dir / "synonyms.tsv")
    edge_counts, ingest_stats = builder.count_corpus(Path(corpus), corpus_format, min_words)
    net = builder.assemble_network(
        edge_counts, valence, emotions, synonyms,
        corpus_id=corpus_id,
        config={**settings, "config_hash": digest},
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    writes = [lambda: builder.save_network(net, out_dir / f"{corpus_id}.network.json"),
              lambda: builder.write_graphml(net, out_dir / f"{corpus_id}.network.graphml")]
    # with two CPUs a forked child writes the GraphML while this process writes the JSON
    workers.map_chunks(lambda chunk: [write() for write in chunk], writes)
    _write_json(
        out_dir / f"{corpus_id}.summary.json",
        {**builder.summary(net), "ingest": ingest_stats, "config_hash": digest},
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
    _check_out(out)
    net = builder.load_network(network)
    rows = metrics.top_rows(net, top_k, layer_mode)
    settings = {"command": "rank", "network": net.provenance.get("config_hash", ""),
                "top_k": top_k, "layer_mode": layer_mode}
    if out:
        _write_rows(out, rows)
        _write_json(
            Path(out).with_suffix(".json"),
            {"ranking": [[s, c] for s, c, _, _ in rows], "config_hash": builder.config_hash(settings)},
        )
    for s, c, _, _ in rows:
        click.echo(f"{s}\t{c:.6f}")


@main.command()
@_network_option
@click.option("--targets", required=True, help="comma-separated concepts")
@click.option("--out", type=click.Path(), default=None)
def aura(network, targets, out):
    """Valence auras of target concepts."""
    _check_out(out)
    net = builder.load_network(network)
    known, unknown = _resolve_targets(net, targets)
    reports = [analysis.valence_aura(net, t)._asdict() for t in known]
    if out:
        _write_json(Path(out), {"auras": reports, "unknown_targets": unknown})
    click.echo("\n".join(f"{r['target']}\t{r['aura']}" for r in reports))
    if unknown:
        click.echo(f"unknown targets: {', '.join(unknown)}", err=True)


@main.command()
@_network_option
@click.option("--targets", required=True, help="comma-separated concepts")
@_lexicon_dir_option
@click.option("--out-dir", type=click.Path(), default=".")
def profile(network, targets, lexicon_dir, out_dir):
    """Emotional profiles of target concepts."""
    net = builder.load_network(network)
    known, unknown = _resolve_targets(net, targets)
    lexicon_dir = _lexicon_dir(lexicon_dir)
    with stage("lexicons", 2):
        emotions = lexicons.load_emotion_lexicon(lexicon_dir / "emotions.tsv")
        antonyms = lexicons.load_antonyms(lexicon_dir / "antonyms.tsv")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for target in known:
        prof = analysis.emotional_profile(net, target, emotions, antonyms)
        _write_json(out / f"{target}.profile.json", prof._asdict())
        top = sorted(prof.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        lines.append(f"{target}\t" + ", ".join(f"{e}={n}" for e, n in top))
    if unknown:
        _write_json(out / "unknown_targets.json", {"unknown_targets": unknown})
    click.echo("\n".join(lines))
    if unknown:
        click.echo(f"unknown targets: {', '.join(unknown)}", err=True)


@main.command()
@_network_option
@click.option("--seed", type=int, default=0)
@click.option("--target", default=None, help="also write this target's community subgraph")
@click.option("--out", type=click.Path(), default=None)
def communities(network, seed, target, out):
    """Louvain communities of the aggregate graph."""
    _check_out(out)
    net = builder.load_network(network)
    node = _resolve_target(net, target) if target else None
    if target and node is None:
        _fail("unknown target", target=target)
    partition = analysis.louvain_partition(net, seed=seed)
    payload = partition._asdict()
    if node is not None:
        sub = analysis.neighborhood_subgraph(net, node, partition)
        payload["target_community"] = sorted(sub.nodes)
        edge_classes = analysis.classify_edges(sub)
        payload["edge_classes"] = {f"{a}|{b}": cls for (a, b), cls in edge_classes.items()}
    if out:
        _write_json(Path(out), payload)
    n_comm = len(set(partition.communities.values()))
    click.echo(f"{n_comm} communities, modularity {partition.modularity:.4f}")


@main.command()
@_network_option
@click.option("--realizations", type=click.IntRange(min=2), default=50)
@click.option("--seed", type=int, default=0)
@click.option("--swaps-per-edge", cls=_CalledDefaultOption, type=int,
              default=lambda: stats.SWAPS_PER_EDGE, show_default=True,
              help="degree-preserving swaps per edge in each realization")
@click.option("--out", type=click.Path(), default=None)
def nulltest(network, realizations, seed, swaps_per_edge, out):
    """Mean clustering against a configuration-model ensemble."""
    _check_out(out)
    net = builder.load_network(network)
    settings = {"command": "nulltest", "network": net.provenance.get("config_hash", ""),
                "realizations": realizations, "seed": seed, "swaps_per_edge": swaps_per_edge}
    report = stats.clustering_null_test(net, realizations, seed, swaps_per_edge)
    if out:
        _write_json(Path(out), {**report, "config_hash": builder.config_hash(settings)})
    z = "undefined" if report["z_score"] is None else f"{report['z_score']:.2f}"
    click.echo(
        f"clustering {report['empirical_clustering']:.3f} "
        f"({report['ensemble_mean']:.3f} +/- {report['ensemble_std']:.2g} for configuration models, "
        f"z={z})"
    )


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
        "swaps_per_edge": stats.SWAPS_PER_EDGE,
        "lexicon_dir": str(lexicon_dir),
    }
    digest = builder.config_hash(settings)
    with stage("lexicons", 4):  # the oracle is read as the lexicons are
        valence = lexicons.load_valence_norms(lexicon_dir / "valence.csv")
        emotions = lexicons.load_emotion_lexicon(lexicon_dir / "emotions.tsv")
        synonyms = lexicons.load_synonyms(lexicon_dir / "synonyms.tsv")
        associations = stats.load_free_associations(oracle)

    out_dir.mkdir(parents=True, exist_ok=True)
    rankings = {}
    sizes = {}
    for path in paragraphs:
        topic_word = BENCHMARK_TOPICS.get(path.stem, path.stem)
        doc = ingest.RawDocument(id=path.stem, text=path.read_text(encoding="utf-8"))
        sentences = ingest.parse_documents([doc], 1, Counter())
        net = builder.build_network(
            sentences, valence, emotions, synonyms,
            corpus_id=path.stem, config={**settings, "config_hash": digest},
        )
        builder.save_network(net, out_dir / f"{path.stem}.network.json")
        topic_stem = stemmer.stem(topic_word)
        rankings[topic_stem] = [s for s, _ in metrics.rank_concepts(net, top_k)]
        sizes[path.stem] = len(net.nodes)
    report = stats.benchmark_topic_relevance(rankings, associations, realizations, seed)
    _write_json(out_dir / "benchmark.json",
                {**report, "paragraph_sizes": sizes, "config_hash": digest})
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
    net = builder.load_network(network)
    if fmt == "graphml":
        builder.write_graphml(net, out)
    elif fmt == "json":
        builder.save_network(net, out)
    else:
        _write_rows(out, metrics.centrality_report(net))
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
