import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import tfmn
from tfmn.build import Concept, MultiplexLexicalNetwork, save_network
from tfmn.cli import main

from conftest import make_network


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


def test_aura_all_unknown_fails(built, runner):
    result = runner.invoke(
        main, ["aura", "--network", str(built / "toy.network.json"), "--targets", "qqqq"]
    )
    assert result.exit_code == 1


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
    chart = json.loads((out / "love.chart.json").read_text())
    assert "emotion_fractions" in chart


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
    net.nodes["lone"] = Concept("lone", "unrated", None, frozenset())
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


def test_group_help_exits_zero(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0 and result.output.startswith("Usage:")
    assert "Mean clustering against a configuration-model ensemble." in result.output


def test_cli_import_leaves_networkx_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(tfmn.__file__).resolve().parents[1])}
    code = "import sys, tfmn.cli; assert 'networkx' not in sys.modules, 'networkx loaded'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


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


def test_every_traced_name_resolves():
    """perfbench/tracer.py wraps these names; deleting one breaks only traced
    benchmark runs, so check them here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"tfmn.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"tfmn.{layer}.{name}"
    for name in tracer.TRACED_METHODS:
        assert callable(getattr(MultiplexLexicalNetwork, name, None)), name


def test_outputs_identical_across_hash_seeds(tmp_path):
    """Each command runs in a fresh interpreter per hash seed, with the same
    relative paths, so every output file must match byte for byte."""
    entry = "import sys; from tfmn.cli import main; sys.argv[0] = 'tfmn'; main()"
    env = {k: v for k, v in os.environ.items() if k != "TFMN_LEXICON_DIR"}
    env["PYTHONPATH"] = str(Path(tfmn.__file__).resolve().parents[1])
    commands = [
        ["build", "--corpus", "corpus.txt", "--corpus-id", "toy", "--out-dir", "out"],
        ["rank", "--network", "out/toy.network.json", "--top-k", "5", "--out", "out/rank.csv"],
        ["nulltest", "--network", "out/toy.network.json", "--realizations", "5", "--seed", "2",
         "--out", "out/null.json"],
        ["communities", "--network", "out/toy.network.json", "--seed", "3", "--target", "love",
         "--out", "out/comm.json"],
        ["benchmark", "--realizations", "5", "--seed", "1", "--out-dir", "bench"],
    ]
    outputs = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"seed{hash_seed}"
        cwd.mkdir()
        (cwd / "corpus.txt").write_text(CORPUS, encoding="utf-8")
        for args in commands:
            subprocess.run([sys.executable, "-c", entry, *args], cwd=cwd, check=True,
                           env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, timeout=120)
        outputs.append({str(p.relative_to(cwd)): p.read_bytes()
                        for p in sorted(cwd.rglob("*")) if p.is_file()})
    # corpus, 3 build and 2 rank files, null, communities, 7 networks and benchmark.json
    assert len(outputs[0]) == 16
    assert outputs[0] == outputs[1]


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
