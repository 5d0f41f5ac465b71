"""Tests for the repository tooling (tools/build_experiments_md.py,
bench_snapshot.py and store_crossover.py)."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "build_experiments_md.py"
BENCH_SCRIPT = ROOT / "tools" / "bench_snapshot.py"


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestBuildExperimentsMd:
    def test_usage_without_args(self):
        proc = run_tool()
        assert proc.returncode == 2
        assert "Usage" in proc.stdout or "Assemble" in proc.stdout

    def test_assembles_preamble_and_body(self, tmp_path):
        source = tmp_path / "harness.md"
        source.write_text("### R-T1: Something\n\n\n\n| a |\n|---|\n| 1 |\n")
        target = tmp_path / "out.md"
        proc = run_tool(str(source), str(target))
        assert proc.returncode == 0
        text = target.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "### R-T1: Something" in text
        # triple blank lines collapsed
        assert "\n\n\n" not in text

    def test_existing_experiments_md_is_well_formed(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert text.count("### R-") == 16
        assert "Verdict" in text
        # every experiment id in the summary table has a section
        for exp_id in ("R-T1", "R-T2", "R-F1", "R-F10", "R-E1", "R-E4"):
            assert f"### {exp_id}:" in text


class TestBenchSnapshot:
    def test_writes_dated_json_with_metrics(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(BENCH_SCRIPT),
             "--out", str(tmp_path), "--date", "2026-01-02",
             "--datasets", "mti", "--algorithms", "mbet",
             "--time-limit", "30",
             # the full-zoo crossover matrix takes minutes; one small
             # dataset x two engines exercises the code path cheaply
             "--crossover-datasets", "mti",
             "--crossover-engines", "mbet,mbea"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        target = tmp_path / "BENCH_2026-01-02.json"
        assert target.exists()
        import json

        doc = json.loads(target.read_text())
        assert doc["date"] == "2026-01-02"
        assert doc["datasets"] == ["mti"]
        (record,) = doc["records"]
        assert record["algorithm"] == "mbet"
        assert record["status"] == "ok"
        assert record["count"] == 2341
        # every row carries the observability snapshot
        assert record["metrics"]["counters"]["mbe_maximal_total"] == 2341
        assert "mbe_run_seconds" in record["metrics"]["histograms"]
        # the planner's calibration block: one cell per dataset x engine,
        # each carrying the fit_work_model record shape
        cells = doc["crossover"]["cells"]
        assert {c["engine"] for c in cells} == {"mbet", "mbea"}
        for cell in cells:
            assert cell["dataset"] == "mti"
            assert cell["complete"] and cell["count"] == 2341
            assert cell["features"]["n_edges"] > 0
        # one dataset is one edge count: too few points to refit
        assert doc["crossover"]["work_model"] is None


class TestStoreCrossover:
    def test_writes_runs_and_per_subproblem_table(self, tmp_path):
        import json

        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "store_crossover.py"),
             "--out", str(tmp_path), "--date", "2026-01-02",
             "--datasets", "mti", "--repeats", "1", "--no-powerlaw"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "BENCH_2026-01-02.json").read_text())
        graph = doc["graphs"]["mti"]
        assert graph["count"] == 2341
        assert set(graph["runs"]) == {
            "trie", "list", "adaptive", "adaptive_vs_best"
        }
        table = graph["subproblems"]
        assert sum(b["subproblems"] for b in table["by_size"]) == table["count"]
        # no threshold rule beats the faster store per subproblem
        assert all(rule["vs_best"] >= 1.0 for rule in table["by_threshold"])
