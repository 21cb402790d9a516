"""The scripts in tools/: each loads, so a private name it imports from the
package is still there, and the ones no other test runs get a real run."""

import json
import shutil
import subprocess
import sys

import pytest
from click.testing import CliRunner

from tfmn.cli import main

from conftest import DATA, TOOLS, load_tool


@pytest.mark.parametrize("name", sorted(path.stem for path in TOOLS.glob("*.py")))
def test_each_tool_loads_as_a_module(name):
    assert load_tool(name).__name__ == f"tool_{name}"


def run_tool(name: str, *args: str, cwd) -> subprocess.CompletedProcess:
    run = subprocess.run([sys.executable, str(TOOLS / f"{name}.py"), *args], cwd=cwd,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


def test_stage_totals_counts_each_realization_of_nulltest(tmp_path):
    """4 realizations rewire 2 layers each and measure 4 clusterings, plus
    the empirical one; forked workers' stages are counted too."""
    result = CliRunner().invoke(main, ["build", "--corpus", str(DATA / "synthetic" / "corpus.txt"),
                                       "--corpus-id", "synthetic", "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    run = run_tool("stage_totals", "nulltest", "--network", "synthetic.network.json",
                   "--realizations", "4", cwd=tmp_path)
    printed, record = run.stdout.splitlines()
    assert printed.startswith("clustering ")
    record = json.loads(record)
    assert record["exit_code"] == 0
    assert record["stages"]["rewire"][1] == 8
    assert record["stages"]["clustering"][1] == 5


def test_closeness_scale_agrees_with_its_references(tmp_path):
    """No closeness row differs from one BFS per node in any layer mode, and
    the Louvain partition is networkx's."""
    lines = run_tool("closeness_scale", "--nodes", "300", cwd=tmp_path).stdout.splitlines()
    modes = load_tool("closeness_scale").LAYER_MODES
    rows = {line.split("\t")[0]: line.split("\t") for line in lines}
    assert [rows[mode][-1] for mode in modes] == ["0"] * len(modes)
    assert lines[-1].split("\t")[-1] == "True"


FIXTURES = ["lexicons/valence.csv", "lexicons/emotions.tsv", "lexicons/synonyms.tsv",
            "lexicons/antonyms.tsv", "synthetic/corpus.txt", "benchmark/free_associations.tsv"]


def test_make_fixtures_writes_the_bundled_fixtures(tmp_path, monkeypatch):
    """Regenerated in a copy of the data, from which the fixtures are first
    removed, the lexicons, the synthetic corpus and the oracle equal the
    bundled files byte for byte."""
    tool = load_tool("make_fixtures")
    data = tmp_path / "data"
    shutil.copytree(DATA, data)
    for fixture in FIXTURES:
        (data / fixture).unlink()
    monkeypatch.setattr(tool, "DATA", data)
    # the order of the script's __main__
    tool.make_valence_csv()
    tool.make_emotion_tsv()
    tool.make_pair_tsvs()
    tool.make_synthetic_corpus()
    tool.make_free_association_oracle()
    differing = [f for f in FIXTURES if (data / f).read_bytes() != (DATA / f).read_bytes()]
    assert differing == []
