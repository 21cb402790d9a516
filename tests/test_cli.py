import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import tfmn
from tfmn import analysis, build as builder, ingest, stats, workers
from tfmn.build import Concept, save_network
from tfmn.cli import main
from tfmn.stats import SWAPS_PER_EDGE

from conftest import FORKED_CORPUS, assert_no_child_left, failing_kernel, make_network


CORPUS = (
    "d1\tLove is joy. Success is victory.\n"
    "d2\tFear is pain. Loss is grief.\n"
    "d3\tLove is hope. Hope is success. Success is love.\n"
    "d4\tMan is not weak.\n"
    "d5\tthe cat sat on the chair\n"
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def built(tmp_path, runner):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["build", "--corpus", str(corpus), "--corpus-id", "toy", "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


def test_build_outputs(built):
    assert (built / "toy.network.json").exists()
    assert (built / "toy.network.graphml").exists()
    summary = json.loads((built / "toy.summary.json").read_text())
    assert summary["nodes"] > 0
    assert "config_hash" in summary
    assert summary["ingest"]["documents"] == 5


def test_build_deterministic(tmp_path, runner):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        result = runner.invoke(
            main, ["build", "--corpus", str(corpus), "--corpus-id", "x", "--out-dir", str(out)]
        )
        assert result.exit_code == 0
        outs.append((out / "x.network.json").read_bytes())
    assert outs[0] == outs[1]


def test_build_missing_corpus(runner):
    result = runner.invoke(main, ["build", "--corpus-id", "x"])
    assert result.exit_code == 1
    assert "corpus" in result.stderr


def test_build_config_file(tmp_path, runner):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"corpus = {corpus}\ncorpus_id = cfg\nout_dir = {tmp_path / 'o'}\n# comment\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, ["build", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "o" / "cfg.network.json").exists()


def test_flag_overrides_config(tmp_path, runner):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus}\ncorpus_id = fromcfg\nout_dir = {tmp_path}\n")
    result = runner.invoke(main, ["build", "--config", str(cfg), "--corpus-id", "fromflag"])
    assert result.exit_code == 0
    assert (tmp_path / "fromflag.network.json").exists()
    assert not (tmp_path / "fromcfg.network.json").exists()


def test_rank(built, runner, tmp_path):
    out_csv = tmp_path / "rank.csv"
    result = runner.invoke(
        main, ["rank", "--network", str(built / "toy.network.json"), "--top-k", "3", "--out", str(out_csv)]
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 3
    stem, closeness = lines[0].split("\t")
    float(closeness)
    assert out_csv.read_text().splitlines()[0] == "stem,closeness,degree,component_size"
    payload = json.loads(out_csv.with_suffix(".json").read_text())
    assert len(payload["ranking"]) == 3


def test_aura(built, runner, tmp_path):
    out = tmp_path / "aura.json"
    result = runner.invoke(
        main,
        ["aura", "--network", str(built / "toy.network.json"), "--targets", "love,zzzz", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert result.output.startswith("love\t")
    payload = json.loads(out.read_text())
    assert payload["unknown_targets"] == ["zzzz"]
    assert payload["auras"][0]["target"] == "love"


def test_aura_surface_form_falls_back_to_stem(built, runner):
    # "weakness" is not a node but its stem "weak" is
    result = runner.invoke(
        main, ["aura", "--network", str(built / "toy.network.json"), "--targets", "Weakness"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("weak\t")


def _assert_no_known_target_fails(built, runner, out, *args):
    """With no target a node, the command prints one JSON line naming the
    targets and the network, and writes nothing."""
    network = str(built / "toy.network.json")
    result = runner.invoke(main, [*args, "--network", network, "--targets", "qqqq,zzzz,qqqq"])
    _assert_one_json_error(result)
    assert json.loads(result.stderr) == {"error": "unknown targets: qqqq, zzzz", "network": network}
    assert result.stdout == "" and not out.exists()


def test_aura_all_unknown_fails(built, runner, tmp_path):
    _assert_no_known_target_fails(built, runner, tmp_path / "a.json", "aura", "--out", str(tmp_path / "a.json"))


def test_profile_all_unknown_fails(built, runner, tmp_path):
    _assert_no_known_target_fails(built, runner, tmp_path / "p", "profile", "--out-dir", str(tmp_path / "p"))


def test_aura_prints_known_targets_in_order_and_names_unknown_ones(built, runner):
    network = built / "toy.network.json"
    result = runner.invoke(
        main, ["aura", "--network", str(network), "--targets", "success,qqqq,love,fear,zzzz,love"]
    )
    assert result.exit_code == 0, result.output
    net = builder.load_network(network)
    expected = [f"{t}\t{analysis.valence_aura(net, t).aura}" for t in ("success", "love", "fear")]
    assert result.stdout == "\n".join(expected) + "\n"
    assert result.stderr == "unknown targets: qqqq, zzzz\n"


def test_profile(built, runner, tmp_path):
    out = tmp_path / "profiles"
    result = runner.invoke(
        main,
        ["profile", "--network", str(built / "toy.network.json"), "--targets", "love", "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    prof = json.loads((out / "love.profile.json").read_text())
    assert set(prof["counts"]) == {
        "anger", "anticipation", "disgust", "fear", "joy", "sadness", "surprise", "trust",
    }
    assert set(prof["fractions"]) == set(prof["counts"])
    assert [p.name for p in out.iterdir()] == ["love.profile.json"]


def test_communities(built, runner, tmp_path):
    out = tmp_path / "comm.json"
    result = runner.invoke(
        main,
        ["communities", "--network", str(built / "toy.network.json"), "--seed", "3",
         "--target", "love", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "modularity" in result.output
    payload = json.loads(out.read_text())
    assert payload["seed"] == 3
    assert "love" in payload["target_community"]
    assert all("|" in k for k in payload["edge_classes"])


def test_nulltest(built, runner, tmp_path):
    out = tmp_path / "null.json"
    result = runner.invoke(
        main,
        ["nulltest", "--network", str(built / "toy.network.json"), "--realizations", "5",
         "--seed", "1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["n_realizations"] == 5
    assert payload["seed"] == 1
    assert "z_score" in payload


def test_nulltest_prints_the_std_to_two_digits_and_the_reported_z(runner, tmp_path):
    # two wheels joined by a path: triangles that rewiring opens
    edges = {(f"h{w}", f"r{w}{i}") for w in "ab" for i in range(6)}
    edges |= {(f"r{w}{i}", f"r{w}{(i + 1) % 6}") for w in "ab" for i in range(6)} | {("ra0", "rb0")}
    save_network(make_network(edges), tmp_path / "net.json")
    out = tmp_path / "null.json"
    result = runner.invoke(main, ["nulltest", "--network", str(tmp_path / "net.json"),
                                  "--realizations", "6", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["z_score"] is not None
    assert result.stdout == (
        f"clustering {payload['empirical_clustering']:.3f} ({payload['ensemble_mean']:.3f} +/- "
        f"{payload['ensemble_std']:.2g} for configuration models, z={payload['z_score']:.2f})\n"
    )


def test_nulltest_default_swaps_per_edge_is_the_constant(built, runner, tmp_path):
    written = []
    for extra in ([], ["--swaps-per-edge", str(SWAPS_PER_EDGE)]):
        out = tmp_path / f"null{len(written)}.json"
        result = runner.invoke(main, ["nulltest", "--network", str(built / "toy.network.json"),
                                      "--realizations", "5", "--seed", "1", *extra, "--out", str(out)])
        assert result.exit_code == 0, result.output
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["swaps_per_edge"] == SWAPS_PER_EDGE


def test_export_roundtrip(built, runner, tmp_path):
    for fmt, name in (("graphml", "x.graphml"), ("json", "x.json"), ("csv", "x.csv")):
        result = runner.invoke(
            main,
            ["export", "--network", str(built / "toy.network.json"), "--format", fmt,
             "--out", str(tmp_path / name)],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / name).exists()
    exported = (tmp_path / "x.json").read_bytes()
    assert exported == (built / "toy.network.json").read_bytes()


def test_benchmark_command(runner, tmp_path):
    out = tmp_path / "bench"
    result = runner.invoke(
        main, ["benchmark", "--realizations", "5", "--seed", "0", "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "benchmark.json").read_text())
    assert payload["n_realizations"] == 5
    assert len(payload["paragraph_sizes"]) == 7
    assert payload["empirical_median"] < payload["null_median"]
    assert payload["swaps_per_edge"] == SWAPS_PER_EDGE
    paragraph = json.loads((out / "emergence.network.json").read_text())
    assert paragraph["provenance"]["config"]["swaps_per_edge"] == SWAPS_PER_EDGE
    assert paragraph["provenance"]["config"]["config_hash"] == payload["config_hash"]
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_rank_csv_rows_match_json_ranking(runner, tmp_path):
    # three components; the two smaller ones hold the highest closeness values
    net = make_network({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1,
                        ("x", "y"): 1, ("y", "z"): 1, ("p", "q"): 1})
    save_network(net, tmp_path / "net.json")
    out_csv = tmp_path / "rank.csv"
    result = runner.invoke(
        main, ["rank", "--network", str(tmp_path / "net.json"), "--top-k", "10", "--out", str(out_csv)]
    )
    assert result.exit_code == 0, result.output
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    ranking = _strict_json(out_csv.with_suffix(".json"))["ranking"]
    assert [[r["stem"], float(r["closeness"])] for r in rows] == ranking
    assert [s for s, _ in ranking] == ["b", "c", "a", "d"]
    assert {r["component_size"] for r in rows} == {"4"}
    assert [line.split("\t")[0] for line in result.output.splitlines()] == ["b", "c", "a", "d"]


def test_nulltest_output_is_strict_json(runner, tmp_path):
    # one node of degree > 1: no degree-preserving rewire can close a triangle
    net = make_network({("hub", "x"): 1, ("hub", "y"): 1, ("hub", "z"): 1, ("p", "q"): 1})
    save_network(net, tmp_path / "net.json")
    out = tmp_path / "null.json"
    result = runner.invoke(
        main, ["nulltest", "--network", str(tmp_path / "net.json"), "--realizations", "5",
               "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    payload = _strict_json(out)
    assert payload["ensemble_std"] == 0.0
    assert payload["z_score"] is None
    assert result.stdout.endswith(" +/- 0 for configuration models, z=undefined)\n")


NETWORK_COMMANDS = {
    "rank": [],
    "aura": ["--targets", "love"],
    "profile": ["--targets", "love"],
    "communities": [],
    "nulltest": ["--realizations", "2"],
    "export": ["--format", "json"],
}


def _node(stem, label="unrated"):
    return {"stem": stem, "valence_label": label, "valence_score": None, "emotions": [],
            "is_negation_marker": False}


MALFORMED = {
    "not_json": "{nodes",
    "missing_key": '{"nodes": []}',
    "dangling_edge": json.dumps({"nodes": [], "syntactic_edges": [["a", "b", 1]],
                                 "synonym_edges": [], "provenance": {}}),
    "unknown_label": json.dumps({"nodes": [_node("joy"), _node("love", "happy")],
                                 "syntactic_edges": [["joy", "love", 1]],
                                 "synonym_edges": [], "provenance": {}}),
    "duplicate_edge": json.dumps({"nodes": [_node("joy"), _node("love")],
                                  "syntactic_edges": [["joy", "love", 1], ["love", "joy", 1]],
                                  "synonym_edges": [], "provenance": {}}),
    "provenance_list": json.dumps({"nodes": [_node("joy"), _node("love")],
                                   "syntactic_edges": [["joy", "love", 1]],
                                   "synonym_edges": [], "provenance": []}),
    "count_string": json.dumps({"nodes": [_node("joy"), _node("love")],
                                "syntactic_edges": [["joy", "love", "x"]],
                                "synonym_edges": [], "provenance": {}}),
    "score_string": json.dumps({"nodes": [_node("joy"), {**_node("love"), "valence_score": "abc"}],
                                "syntactic_edges": [["joy", "love", 1]],
                                "synonym_edges": [], "provenance": {}}),
    "emotions_string": json.dumps({"nodes": [_node("joy"), {**_node("love"), "emotions": "joy"}],
                                   "syntactic_edges": [["joy", "love", 1]],
                                   "synonym_edges": [], "provenance": {}}),
    "score_nan": json.dumps({"nodes": [_node("joy"), {**_node("love"), "valence_score": math.nan}],
                             "syntactic_edges": [["joy", "love", 1]],
                             "synonym_edges": [], "provenance": {}}),
    "score_infinity": json.dumps({"nodes": [_node("joy"), {**_node("love"), "valence_score": math.inf}],
                                  "syntactic_edges": [["joy", "love", 1]],
                                  "synonym_edges": [], "provenance": {}}),
    "provenance_nan": json.dumps({"nodes": [_node("joy"), _node("love")],
                                  "syntactic_edges": [["joy", "love", 1]],
                                  "synonym_edges": [], "provenance": {"x": math.nan}}),
    "duplicate_stem": json.dumps({"nodes": [_node("joy", "positive"), _node("love"),
                                            _node("joy", "negative")],
                                  "syntactic_edges": [["joy", "love", 1]],
                                  "synonym_edges": [], "provenance": {}}),
}
EMPTY = json.dumps({"nodes": [], "syntactic_edges": [], "synonym_edges": [], "provenance": {}})
NO_EDGES = json.dumps({"nodes": [_node("joy"), _node("love")], "syntactic_edges": [],
                       "synonym_edges": [], "provenance": {}})


@pytest.mark.parametrize(
    "command, text",
    [(c, t) for c in NETWORK_COMMANDS for t in MALFORMED.values()]
    + [("communities", EMPTY), ("communities", NO_EDGES)],
    ids=[f"{c}-{k}" for c in NETWORK_COMMANDS for k in MALFORMED]
    + ["communities-empty", "communities-no_edges"],
)
def test_bad_network_fails_with_one_json_line(runner, tmp_path, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    args = [command, "--network", str(path), *NETWORK_COMMANDS[command]]
    if command == "profile":
        args += ["--out-dir", str(tmp_path / "p")]
    if command == "export":
        args += ["--out", str(tmp_path / "x.json")]
    result = runner.invoke(main, args)
    _assert_one_json_error(result)
    assert json.loads(result.stderr)["network"] == str(path)


def _assert_one_json_error(result):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert "error" in json.loads(lines[0])
    assert "Traceback" not in result.output


def test_aura_on_isolated_node_fails_with_one_json_line(runner, tmp_path):
    net = make_network({("joy", "love"): 1})
    net.nodes["lone"] = Concept("unrated", None, frozenset())
    save_network(net, tmp_path / "net.json")
    result = runner.invoke(main, ["aura", "--network", str(tmp_path / "net.json"), "--targets", "lone"])
    _assert_one_json_error(result)
    assert json.loads(result.stderr)["network"] == str(tmp_path / "net.json")


def test_build_on_line_without_tab_fails_with_one_json_line(runner, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("no tab here\n", encoding="utf-8")
    result = runner.invoke(main, ["build", "--corpus", str(corpus), "--out-dir", str(tmp_path / "out")])
    _assert_one_json_error(result)
    assert json.loads(result.stderr)["corpus"] == str(corpus)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("swaps", ["0", "-2"])
def test_nulltest_rejects_swaps_per_edge_below_one(built, runner, tmp_path, swaps):
    out = tmp_path / "null.json"
    _assert_one_json_error(runner.invoke(
        main, ["nulltest", "--network", str(built / "toy.network.json"), "--realizations", "3",
               "--swaps-per-edge", swaps, "--out", str(out)]
    ))
    assert not out.exists()


def test_nulltest_error_in_a_worker_fails_with_one_json_line(built, runner, tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "_rewire_ids", failing_kernel(4))
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)  # seeds 2-4 go to the worker
    out = tmp_path / "null.json"
    result = runner.invoke(main, ["nulltest", "--network", str(built / "toy.network.json"),
                                  "--realizations", "5", "--out", str(out)])
    _assert_one_json_error(result)
    assert json.loads(result.stderr)["error"] == "bad seed 4"
    assert result.stdout == "" and not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _build_with_workers(runner, tmp_path, corpus, k, name):
    """Runs build of corpus with k usable CPUs into tmp_path / name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workers, "_usable_cpus", lambda: k)
        return runner.invoke(main, ["build", "--corpus", str(corpus), "--corpus-id", "f",
                                    "--out-dir", str(tmp_path / name)])


@pytest.mark.parametrize("n_docs", [7, 2], ids=["uneven chunks", "fewer documents than workers"])
def test_build_does_not_depend_on_the_worker_count(runner, tmp_path, monkeypatch, n_docs, valence,
                                                   emotions, synonyms):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(FORKED_CORPUS.splitlines(keepends=True)[:n_docs]), encoding="utf-8")
    built = []
    assemble = builder.assemble_network
    monkeypatch.setattr(builder, "assemble_network",
                        lambda *args, **kwargs: built.append(assemble(*args, **kwargs)) or built[-1])
    outputs = []
    for k in (1, 2, 3):
        result = _build_with_workers(runner, tmp_path, corpus, k, f"out{k}")
        assert result.exit_code == 0, result.output
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / f"out{k}").iterdir())})
    assert len(outputs[0]) == 3
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    # insertion order too, which the files do not show
    edges = [list(net.syntactic_edges.items()) for net in built]
    assert edges[1] == edges[0] and edges[2] == edges[0]
    sentences = ingest.parse_documents(ingest.read_text_corpus(corpus), 3, Counter())
    one_process = builder.build_network(sentences, valence, emotions, synonyms)
    assert list(one_process.syntactic_edges.items()) == edges[0]
    if n_docs == 7:
        summary = json.loads(outputs[0]["f.summary.json"])
        assert summary["ingest"] == {"documents": 6, "dropped_short": 1, "unparsed_sentences": 1,
                                     "rejected": 0}
        assert summary["provenance"]["edgeless_sentences"] == 1
        assert dict(edges[0])[("joi", "love")] == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_build_error_in_a_worker_chunk_fails_with_one_json_line(runner, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(FORKED_CORPUS, encoding="utf-8")
    parse = ingest.heuristic_parse

    def failing(sentence, doc_id):
        if doc_id.startswith("f7-"):  # in the second chunk of two
            raise ValueError("bad document f7")
        return parse(sentence, doc_id=doc_id)

    monkeypatch.setattr(ingest, "heuristic_parse", failing)
    result = _build_with_workers(runner, tmp_path, corpus, 2, "out")
    _assert_one_json_error(result)
    assert json.loads(result.stderr) == {"error": "bad document f7", "corpus": str(corpus)}
    assert result.stdout == "" and not (tmp_path / "out").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_build_error_in_the_graphml_writer_fails_with_one_json_line(runner, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(FORKED_CORPUS, encoding="utf-8")
    parent = os.getpid()

    def failing(net, path):
        where = "parent" if os.getpid() == parent else "child"
        raise OSError(f"disk full in the {where}: {Path(path).name}")

    monkeypatch.setattr(builder, "write_graphml", failing)
    left = []
    for k, where in ((1, "parent"), (2, "child")):  # two CPUs fork the GraphML writer
        result = _build_with_workers(runner, tmp_path, corpus, k, f"out{k}")
        _assert_one_json_error(result)
        assert json.loads(result.stderr) == {"error": f"disk full in the {where}: f.network.graphml",
                                             "corpus": str(corpus)}
        assert result.stdout == ""
        left.append({p.name: p.read_bytes() for p in sorted((tmp_path / f"out{k}").iterdir())})
        assert_no_child_left()
    assert list(left[0]) == ["f.network.json"] and left[1] == left[0]


def test_build_stage_items_do_not_depend_on_the_worker_count(runner, tmp_path, stage_items):
    """Each stage's items count the work done, which the outputs state, and
    the forked chunks and GraphML writer send theirs back."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(FORKED_CORPUS, encoding="utf-8")
    records = []
    for k in (1, 2, 3):
        result = _build_with_workers(runner, tmp_path, corpus, k, f"out{k}")
        assert result.exit_code == 0, result.output
        records.append(stage_items())
    assert records[1] == records[0] and records[2] == records[0]
    summary = json.loads((tmp_path / "out1" / "f.summary.json").read_text())
    read, sentences = summary["ingest"], summary["provenance"]["sentence_count"]
    assert records[0] == {
        "lexicons": 3,
        "clean": read["documents"] + read["dropped_short"],
        "parse": sentences + read["unparsed_sentences"],
        "contract": sentences,
        "assemble": summary["nodes"],
        "write_network": 1,
        "write_graphml": 1,
        "write_report": 1,
    }
    assert (records[0]["clean"], records[0]["parse"]) == (7, 12)
    assert_no_child_left()


def test_build_of_only_dropped_documents_fails_with_no_sentences(runner, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a\tno way\nb\ttoo short\nc\thi\n", encoding="utf-8")
    result = _build_with_workers(runner, tmp_path, corpus, 2, "out")
    _assert_one_json_error(result)
    assert json.loads(result.stderr)["error"] == "no sentences"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corpus_id", ["../escaped", "", ".", "..", "a/b", "/abs"])
def test_build_refuses_a_corpus_id_that_is_not_a_file_name(runner, tmp_path, monkeypatch, corpus_id):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    monkeypatch.setattr(ingest, "read_text_corpus", None)  # any work would fail otherwise
    result = runner.invoke(main, ["build", "--corpus", str(corpus), "--corpus-id", corpus_id,
                                  "--out-dir", str(tmp_path / "out")])
    _assert_one_json_error(result)
    assert repr(corpus_id) in json.loads(result.stderr)["error"]
    assert result.stdout == ""
    assert list(tmp_path.rglob("*")) == [corpus]


def test_missing_network_path_fails_with_one_json_line(runner, tmp_path):
    result = runner.invoke(main, ["rank", "--network", str(tmp_path / "nope.json")])
    _assert_one_json_error(result)
    assert "--network" in json.loads(result.stderr)["error"]
    _assert_one_json_error(runner.invoke(main, ["rank"]))


def test_bad_config_value_fails_with_one_json_line(runner, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus}\nmin_words = abc\n", encoding="utf-8")
    result = runner.invoke(main, ["build", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    _assert_one_json_error(result)
    error = json.loads(result.stderr)
    assert "'min_words'" in error["error"] and "abc" in error["error"]
    assert error["file"] == str(cfg)


@pytest.mark.parametrize("command, key", [
    ("rank", "top_k"), ("rank", "layer_mode"), ("build", "corpus_format"),
    ("benchmark", "top_k"), ("benchmark", "realizations"), ("benchmark", "seed"),
])
def test_bad_config_value_names_key_and_file(runner, tmp_path, command, key):
    save_network(make_network({("joy", "love"): 1}), tmp_path / "net.json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = abc\n", encoding="utf-8")
    extra = ["--network", str(tmp_path / "net.json")] if command == "rank" else ["--out-dir", str(tmp_path / "o")]
    result = runner.invoke(main, [command, "--config", str(cfg), *extra])
    _assert_one_json_error(result)
    error = json.loads(result.stderr)
    assert f"'{key}'" in error["error"] and "abc" in error["error"]
    assert error["file"] == str(cfg)
    assert not (tmp_path / "o").exists()


def _flags_as_config(flags: list[str]) -> str:
    """The key=value lines that set the same options as `flags`."""
    return "".join(f"{flag[2:].replace('-', '_')} = {value}\n"
                   for flag, value in zip(flags[::2], flags[1::2]))


def test_config_file_matches_flags_byte_for_byte(runner, tmp_path, data_dir):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    bench = data_dir / "benchmark"
    lexicons = str(data_dir / "lexicons")
    runs = {
        "build": ["--corpus", str(corpus), "--corpus-format", "text", "--lexicon-dir", lexicons,
                  "--min-words", "2", "--corpus-id", "toy"],
        "benchmark": ["--paragraph-dir", str(bench), "--oracle", str(bench / "free_associations.tsv"),
                      "--lexicon-dir", lexicons, "--top-k", "5", "--realizations", "5", "--seed", "4"],
    }
    for command, flags in runs.items():
        by_flags, by_config = tmp_path / f"{command}-flags", tmp_path / f"{command}-config"
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(_flags_as_config([*flags, "--out-dir", str(by_config)]), encoding="utf-8")
        for args in ([command, *flags, "--out-dir", str(by_flags)], [command, "--config", str(cfg)]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        files = sorted(p.name for p in by_flags.iterdir())
        assert files == sorted(p.name for p in by_config.iterdir()) and files
        for name in files:
            assert (by_flags / name).read_bytes() == (by_config / name).read_bytes(), name


def test_rank_config_sets_network_and_out(built, runner, tmp_path):
    cfg = tmp_path / "rank.cfg"
    cfg.write_text(f"network = {built / 'toy.network.json'}\ntop_k = 2\nout = {tmp_path / 'r.csv'}\n",
                   encoding="utf-8")
    result = runner.invoke(main, ["rank", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert len(result.stdout.splitlines()) == 2
    assert len(json.loads((tmp_path / "r.json").read_text())["ranking"]) == 2


def test_lexicon_dir_precedence(runner, tmp_path, lexicon_dir):
    """--lexicon-dir wins over the config file, which wins over
    TFMN_LEXICON_DIR, which wins over the bundled lexicons."""
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    dirs = {}
    for name in ("flag", "config", "env"):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        for f in lexicon_dir.iterdir():
            (dirs[name] / f.name).write_bytes(f.read_bytes())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lexicon_dir = {dirs['config']}\n", encoding="utf-8")

    def used(extra, env):
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", "--corpus", str(corpus), "--corpus-id", "toy",
                                      "--out-dir", str(out), *extra], env=env)
        assert result.exit_code == 0, result.output
        network = json.loads((out / "toy.network.json").read_text())
        return network["provenance"]["config"]["lexicon_dir"]

    env = {"TFMN_LEXICON_DIR": str(dirs["env"])}
    assert used(["--config", str(cfg), "--lexicon-dir", str(dirs["flag"])], env) == str(dirs["flag"])
    assert used(["--config", str(cfg)], env) == str(dirs["config"])
    assert used([], env) == str(dirs["env"])
    assert Path(used([], {"TFMN_LEXICON_DIR": None})) == lexicon_dir


def test_every_command_runs_inside_the_error_boundary():
    boundary = main.command_class
    assert issubclass(boundary, click.Command) and boundary.invoke is not click.Command.invoke
    assert main.commands and all(type(cmd) is boundary for cmd in main.commands.values())


@pytest.mark.parametrize("targets", [",", " , "])
@pytest.mark.parametrize("command", ["aura", "profile"])
def test_targets_that_split_to_nothing_fail_with_one_json_line(built, runner, tmp_path, command,
                                                               targets):
    out = tmp_path / "o"
    out_args = ["--out", str(out)] if command == "aura" else ["--out-dir", str(out)]
    result = runner.invoke(
        main, [command, "--network", str(built / "toy.network.json"), "--targets", targets, *out_args]
    )
    _assert_one_json_error(result)
    assert result.stdout == ""
    assert json.loads(result.stderr)["targets"] == targets
    assert not out.exists()


def test_communities_unknown_target_fails_before_louvain(built, runner, tmp_path):
    out = tmp_path / "comm.json"
    result = runner.invoke(
        main, ["communities", "--network", str(built / "toy.network.json"), "--target", "zzzz",
               "--out", str(out)]
    )
    _assert_one_json_error(result)
    assert result.stdout == ""
    assert json.loads(result.stderr)["target"] == "zzzz"
    assert not out.exists()


def test_benchmark_without_paragraphs_names_the_directory(runner, tmp_path):
    paragraphs = tmp_path / "paragraphs"
    paragraphs.mkdir()
    (paragraphs / "notes.md").write_text("not a paragraph\n", encoding="utf-8")
    result = runner.invoke(main, ["benchmark", "--paragraph-dir", str(paragraphs),
                                  "--out-dir", str(tmp_path / "o")])
    _assert_one_json_error(result)
    assert json.loads(result.stderr)["paragraph_dir"] == str(paragraphs)
    assert not (tmp_path / "o").exists()


def test_out_dir_that_is_a_file_fails_with_one_json_line(runner, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    (tmp_path / "taken").write_text("", encoding="utf-8")
    _assert_one_json_error(runner.invoke(
        main, ["build", "--corpus", str(corpus), "--out-dir", str(tmp_path / "taken")]
    ))


@pytest.mark.parametrize("command, extra", [
    ("rank", []),
    ("aura", ["--targets", "love"]),
    ("communities", []),
    ("nulltest", ["--realizations", "2"]),
])
def test_unwritable_out_prints_no_results(built, runner, tmp_path, command, extra):
    out = tmp_path / "missing" / "out.json"
    result = runner.invoke(main, [command, "--network", str(built / "toy.network.json"), *extra,
                                  "--out", str(out)])
    _assert_one_json_error(result)
    assert result.stdout == ""


@pytest.mark.parametrize("command, extra, work", [
    ("rank", [], "metrics.top_rows"),
    ("aura", ["--targets", "love"], "analysis.valence_aura"),
    ("communities", [], "analysis.louvain_partition"),
    ("nulltest", ["--realizations", "50"], "stats.clustering_null_test"),
])
def test_missing_out_directory_fails_before_the_work(built, runner, tmp_path, monkeypatch, command,
                                                     extra, work):
    module, name = work.split(".")
    calls = []
    monkeypatch.setattr(getattr(tfmn, module), name, lambda *args: calls.append(args))
    out = tmp_path / "missing" / "out.json"
    result = runner.invoke(main, [command, "--network", str(built / "toy.network.json"), *extra,
                                  "--out", str(out)])
    _assert_one_json_error(result)
    assert json.loads(result.stderr)["error"] == f"[Errno 2] no such directory: '{out.parent}'"
    assert calls == [] and result.stdout == ""


def test_profile_that_fails_to_write_prints_no_results(built, runner, tmp_path):
    out = tmp_path / "prof"
    (out / "weak.profile.json").mkdir(parents=True)  # the second target's file cannot be written
    result = runner.invoke(main, ["profile", "--network", str(built / "toy.network.json"),
                                  "--targets", "love,weak", "--out-dir", str(out)])
    _assert_one_json_error(result)
    assert result.stdout == ""


def test_help_unchanged(runner):
    result = runner.invoke(main, ["rank", "--help"])
    assert result.exit_code == 0 and result.output.startswith("Usage:")


def test_bare_command_fails_with_one_json_line(runner):
    result = runner.invoke(main, [])
    _assert_one_json_error(result)
    assert result.stdout == ""


def test_bare_module_run_fails_with_one_json_line():
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "tfmn.cli"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


def _entry_run(args, cwd, code=None):
    """The program entry run as a subprocess with stdout and stderr piped:
    `python -m tfmn.cli ARGS`, or `python -c CODE ARGS`. Without
    PYTHONUNBUFFERED, stdout to a pipe is block-buffered, as it is for users."""
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    head = ["-m", "tfmn.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], cwd=cwd, env=env, capture_output=True,
                          timeout=60)


def test_entry_writes_what_the_in_process_run_writes(built, runner, tmp_path):
    """The entry leaves through os._exit; stdout and every file it wrote are
    byte for byte those of main.main(...), which leaves as click does."""
    written = {}
    for name in ("entry", "runner"):
        (tmp_path / name).mkdir()
        args = ["rank", "--network", str(built / "toy.network.json"), "--top-k", "5",
                "--out", str(tmp_path / name / "rank.csv")]
        if name == "entry":
            proc = _entry_run(args, tmp_path)
            assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
            stdout = proc.stdout
        else:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            stdout = result.stdout_bytes
        written[name] = stdout, {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert written["entry"] == written["runner"]
    assert sorted(written["entry"][1]) == ["rank.csv", "rank.json"]
    assert len(written["entry"][0].splitlines()) == 5


@pytest.mark.parametrize("code, stdout", [
    (None, b""),
    ("import sys; sys.stdout.write('unflushed'); sys.argv[0] = 'tfmn'; from tfmn.cli import main; main()",
     b"unflushed"),
], ids=["module", "unflushed stdout"])
def test_entry_command_failure_exits_one_with_one_json_line(tmp_path, code, stdout):
    """_fail flushes only stderr; the entry flushes stdout before os._exit."""
    (tmp_path / "bad.json").write_text("not json", encoding="utf-8")
    proc = _entry_run(["rank", "--network", "bad.json"], tmp_path, code)
    assert proc.returncode == 1 and proc.stdout == stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["network"] == "bad.json"


def test_entry_version_exits_zero(tmp_path):
    proc = _entry_run(["--version"], tmp_path)
    assert proc.returncode == 0 and tfmn.__version__ in proc.stdout.decode()


def test_entry_lets_an_uncaught_exception_leave_with_its_traceback(built, tmp_path):
    """Only click's SystemExit takes the os._exit path; an error no command
    class catches still prints its traceback and a non-zero code."""
    code = ("import sys, tfmn.build, tfmn.cli\n"
            "def broken(path):\n"
            "    raise RuntimeError('layer broke')\n"
            "tfmn.build.load_network = broken\n"
            "sys.argv[0] = 'tfmn'\n"
            "tfmn.cli.main()")
    proc = _entry_run(["rank", "--network", str(built / "toy.network.json")], tmp_path, code)
    assert proc.returncode != 0 and proc.stdout == b""
    stderr = proc.stderr.decode()
    assert stderr.startswith("Traceback") and "RuntimeError: layer broke" in stderr


def test_group_help_exits_zero(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0 and result.output.startswith("Usage:")
    assert "Mean clustering against a configuration-model ensemble." in result.output


def test_cli_import_leaves_networkx_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    code = ("import sys, tfmn.cli; loaded = {'networkx', 'pickle'} & set(sys.modules); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


SUBMODULES = ("analysis", "build", "ingest", "lexicons", "metrics", "stats", "stemmer", "workers")


def test_cli_import_binds_every_layer_and_executes_none():
    """perfbench/tracer.py looks up sys.modules["tfmn.<layer>"] right after
    `import tfmn.cli`; a lazy module is of its own type until first use."""
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    code = ("import json, sys, types, tfmn.cli\n"
            "print(json.dumps({n: type(sys.modules.get(f'tfmn.{n}')).__name__ for n in sys.argv[1:]}))")
    proc = subprocess.run([sys.executable, "-c", code, *SUBMODULES], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {n: "_LazyModule" for n in SUBMODULES}


_REPORT_EXECUTED = """
import json, sys, types
from tfmn.cli import main
try:
    main.main(args=sys.argv[1:], prog_name="tfmn")
finally:
    executed = [n[5:] for n, m in sys.modules.items() if n.startswith("tfmn.") and type(m) is types.ModuleType]
    print(json.dumps({"executed": executed, "hashlib": "hashlib" in sys.modules}), file=sys.stderr)
"""


@pytest.mark.parametrize("args, executed", [
    (["build", "--corpus", "corpus.txt", "--corpus-id", "toy", "--out-dir", "out2"],
     {"build", "ingest", "lexicons", "stemmer", "workers"}),
    (["rank", "--out", "rank.csv"], {"build", "metrics"}),
    (["aura", "--targets", "love"], {"build", "analysis"}),
    (["communities", "--target", "love", "--out", "comm.json"], {"build", "analysis"}),
    (["profile", "--targets", "love", "--out-dir", "prof"], {"build", "analysis", "lexicons", "stemmer"}),
    (["nulltest", "--realizations", "2", "--out", "null.json"], {"build", "metrics", "stats", "workers"}),
], ids=["build", "rank", "aura", "communities", "profile", "nulltest"])
def test_each_command_executes_only_the_layers_it_runs(built, tmp_path, args, executed):
    (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    if args[0] != "build":
        args = [args[0], "--network", str(built / "toy.network.json"), *args[1:]]
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    env.pop("TFMN_LEXICON_DIR", None)
    proc = subprocess.run([sys.executable, "-c", _REPORT_EXECUTED, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    assert set(report["executed"]) & set(SUBMODULES) == executed
    if args[0] == "aura":
        assert not report["hashlib"]


def test_build_leaves_networkx_and_numpy_unloaded(tmp_path):
    (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    code = (
        "import sys; from tfmn.cli import main\n"
        "main.main(args=['build', '--corpus', 'corpus.txt', '--corpus-id', 'toy',"
        " '--out-dir', 'out'], standalone_mode=False)\n"
        "loaded = {'networkx', 'numpy'} & set(sys.modules)\n"
        "assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "toy.network.graphml").exists()


def test_communities_and_read_graphml_leave_networkx_unloaded(tmp_path):
    (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    code = (
        "import sys; from tfmn.cli import main; from tfmn.build import read_graphml\n"
        "for args in (['build', '--corpus', 'corpus.txt', '--corpus-id', 'toy', '--out-dir', 'out'],\n"
        "             ['communities', '--network', 'out/toy.network.json', '--target', 'love',\n"
        "              '--out', 'out/comm.json']):\n"
        "    main.main(args=args, standalone_mode=False)\n"
        "assert read_graphml('out/toy.network.graphml').nodes\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded'"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "love" in json.loads((tmp_path / "out" / "comm.json").read_text())["target_community"]


def _lexicons_without(tmp_path, lexicon_dir, *missing):
    """A copy of the bundled lexicon directory without the files named."""
    copy = tmp_path / "lexicons"
    copy.mkdir()
    for f in lexicon_dir.iterdir():
        if f.name not in missing:
            (copy / f.name).write_bytes(f.read_bytes())
    return copy


def test_build_and_benchmark_never_read_antonyms(runner, tmp_path, lexicon_dir):
    lexicons = str(_lexicons_without(tmp_path, lexicon_dir, "antonyms.tsv"))
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    result = runner.invoke(main, ["build", "--corpus", str(corpus), "--lexicon-dir", lexicons,
                                  "--out-dir", str(tmp_path / "b")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["benchmark", "--lexicon-dir", lexicons, "--realizations", "2",
                                  "--out-dir", str(tmp_path / "bench")])
    assert result.exit_code == 0, result.output


def test_profile_never_reads_valence_or_synonyms(built, runner, tmp_path, lexicon_dir):
    lexicons = str(_lexicons_without(tmp_path, lexicon_dir, "valence.csv", "synonyms.tsv"))
    result = runner.invoke(main, ["profile", "--network", str(built / "toy.network.json"),
                                  "--targets", "love", "--lexicon-dir", lexicons,
                                  "--out-dir", str(tmp_path / "p")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "p" / "love.profile.json").exists()


def test_build_without_emotions_names_the_file(runner, tmp_path, lexicon_dir):
    lexicons = _lexicons_without(tmp_path, lexicon_dir, "emotions.tsv")
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    result = runner.invoke(main, ["build", "--corpus", str(corpus), "--lexicon-dir", str(lexicons),
                                  "--out-dir", str(tmp_path / "b")])
    _assert_one_json_error(result)
    error = json.loads(result.stderr)
    assert str(lexicons / "emotions.tsv") in error["error"]
    assert error["corpus"] == str(corpus)
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("realizations", ["0", "1"])
@pytest.mark.parametrize("command", ["nulltest", "benchmark"])
def test_realizations_below_two_fail_before_writing(built, runner, tmp_path, command, realizations):
    out = tmp_path / "o"
    args = (["--network", str(built / "toy.network.json"), "--out", str(out)] if command == "nulltest"
            else ["--out-dir", str(out)])
    result = runner.invoke(main, [command, *args, "--realizations", realizations])
    _assert_one_json_error(result)
    assert "--realizations" in json.loads(result.stderr)["error"]
    assert result.stdout == "" and not out.exists()


def test_benchmark_config_realizations_below_two_fails_before_writing(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("realizations = 1\n", encoding="utf-8")
    result = runner.invoke(main, ["benchmark", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    _assert_one_json_error(result)
    error = json.loads(result.stderr)
    assert "'realizations'" in error["error"] and error["file"] == str(cfg)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", ["rank", "benchmark"])
def test_top_k_zero_fails_before_writing(built, runner, tmp_path, command, by_config):
    out = tmp_path / "o"
    args = (["--network", str(built / "toy.network.json"), "--out", str(out / "rank.csv")]
            if command == "rank" else ["--realizations", "2", "--out-dir", str(out)])
    if by_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("top_k = 0\n", encoding="utf-8")
        args += ["--config", str(cfg)]
    else:
        args += ["--top-k", "0"]
    result = runner.invoke(main, [command, *args])
    _assert_one_json_error(result)
    error = json.loads(result.stderr)
    assert ("'top_k'" if by_config else "--top-k") in error["error"]
    assert "0 is not in the range x>=1" in error["error"]
    assert result.stdout == "" and not out.exists()


def test_repeated_targets_are_merged(built, runner, tmp_path):
    network = str(built / "toy.network.json")
    targets = "love,Loves,joy,zzz,LOVE,zzz"
    result = runner.invoke(main, ["aura", "--network", network, "--targets", targets,
                                  "--out", str(tmp_path / "a.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "a.json").read_text())
    assert [r["target"] for r in payload["auras"]] == ["love", "joi"]
    assert payload["unknown_targets"] == ["zzz"]
    assert [line.split("\t")[0] for line in result.stdout.splitlines()] == ["love", "joi"]
    result = runner.invoke(main, ["profile", "--network", network, "--targets", targets,
                                  "--out-dir", str(tmp_path / "p")])
    assert result.exit_code == 0, result.output
    assert [line.split("\t")[0] for line in result.stdout.splitlines()] == ["love", "joi"]
    unknown = json.loads((tmp_path / "p" / "unknown_targets.json").read_text())
    assert unknown == {"unknown_targets": ["zzz"]}


def test_null_models_reach_their_swap_target_on_bundled_data(tmp_path, data_dir):
    """With UserWarning as an error, nulltest on the synthetic corpus and the
    topic benchmark on the bundled paragraphs and oracle still succeed: no
    rewiring falls short of its target and no topic is missing."""
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    runs = [
        ["build", "--corpus", str(data_dir / "synthetic" / "corpus.txt"), "--corpus-id", "syn",
         "--out-dir", str(tmp_path)],
        ["nulltest", "--network", str(tmp_path / "syn.network.json"), "--realizations", "5"],
        ["benchmark", "--realizations", "5", "--out-dir", str(tmp_path / "bench")],
    ]
    for args in runs:
        proc = subprocess.run([sys.executable, "-W", "error::UserWarning", "-m", "tfmn.cli", *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
