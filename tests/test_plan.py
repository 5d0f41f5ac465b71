"""Tests for the cost-model planner (src/repro/plan).

Pinned here, mirroring docs/planning.md:

* the plan reads only the graph's sizes: planning a zoo graph never
  runs the 2-hop scan or the components pass;
* the work model is one power law in the edge count that scores every
  serial engine alike, and its fit recovers planted constants;
* golden plans: on zoo graphs the chosen engine is one the crossover
  matrix actually measured as competitive, and the budget leaves at
  least 3x headroom over the measured mbet time;
* off the zoo (tiny, dense random, planted) the plan is serial mbet with
  the floor budget and no absurd prediction;
* plan mechanics: threshold-incapable engines are ineligible when the
  job sets thresholds, open breakers demote without disqualifying,
  engines rank by pool preference, parallel needs cores and enough
  predicted serial work;
* the ``repro plan`` CLI prints the chosen configuration, ``--explain``
  lists every candidate with a status and reasons, ``--json`` emits the
  machine-readable plan;
* ``repro run`` without ``--algorithm`` executes the planner's choice,
  and an explicit ``--algorithm`` opts out.
"""

from __future__ import annotations

import json

import pytest

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.stats import compute_stats
from repro.cli import main
from repro.core.base import run_mbe
from repro.plan import (
    PLANNER_ENGINES,
    CostModel,
    PlanError,
    PlanFeatures,
    build_plan,
    fit_work_model,
    recommend_slices,
    recommend_straggler_factor,
)
from tests.conftest import make_g0


def _committed_crossover() -> list[dict]:
    """The crossover cells of the newest committed BENCH snapshot that
    carries a crossover matrix (other snapshots hold other tables)."""
    import glob
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    assert paths, "no committed BENCH_*.json snapshot"
    for path in reversed(paths):
        with open(path) as handle:
            doc = json.load(handle)
        cells = doc.get("crossover", {}).get("cells", [])
        if cells:
            return cells
    raise AssertionError("no snapshot carries a crossover matrix")


def _zoo_features(**overrides) -> PlanFeatures:
    """Zoo-scale sizes (2,239 x 2,239 vertices, 17,858 edges)."""
    base = dict(n_u=2239, n_v=2239, n_edges=17858)
    base.update(overrides)
    return PlanFeatures(**base)


# --------------------------------------------------------------------------
# features


class TestFeatures:
    def test_extract_matches_stats_layer(self, g0):
        feats = PlanFeatures.from_graph(g0)
        stats = compute_stats(g0)
        assert (feats.n_u, feats.n_v, feats.n_edges) == (
            stats.n_u, stats.n_v, stats.n_edges
        )

    def test_round_trip_ignores_unknown_fields(self, g0):
        feats = PlanFeatures.from_graph(g0)
        payload = feats.as_dict()
        payload["future_field"] = 42
        assert PlanFeatures.from_dict(payload) == feats

    def test_plan_never_scans_the_graph(self, monkeypatch):
        """Planning a zoo graph reads its sizes and nothing else: with the
        2-hop scan, the components pass and the 2-hop helpers rigged to
        raise, the plan equals the one planned from the committed
        crossover row's (wider) signature of the same graph."""
        import repro.bigraph.components as components_mod
        import repro.bigraph.stats as stats_mod
        from repro import datasets

        graph = datasets.load("wc")
        (row,) = [
            c["features"] for c in _committed_crossover()
            if c["dataset"] == "wc" and c["engine"] == "mbet"
        ]

        def boom(*_args, **_kwargs):
            raise AssertionError("the planner scanned the graph")

        monkeypatch.setattr(stats_mod, "compute_stats", boom)
        monkeypatch.setattr(components_mod, "connected_components", boom)
        monkeypatch.setattr(BipartiteGraph, "two_hop_u", boom)
        monkeypatch.setattr(BipartiteGraph, "two_hop_v", boom)
        for cores in (1, 2, 16):
            plan = build_plan(graph, n_cores=cores)
            expected = build_plan(
                features=PlanFeatures.from_dict(row), n_cores=cores
            )
            assert plan.as_dict() == expected.as_dict()


# --------------------------------------------------------------------------
# cost model


class TestCostModel:
    def test_calibrated_engines_cover_the_serial_pool(self):
        # one work model, no per-engine table: every serial engine in the
        # pool gets the same calibrated MBET prediction
        model = CostModel(n_cores=1)
        feats = _zoo_features()
        serial = [e for e in PLANNER_ENGINES if e != "parallel"]
        preds = {model.predict_seconds(e, feats) for e in serial}
        assert preds == {model.serial_seconds(feats)}

    def test_zoo_scale_ranking_prefers_mbet_family(self):
        plan = build_plan(features=_zoo_features(), n_cores=1)
        chain = plan.engine_chain()
        assert chain[0] == "mbet"
        assert chain[-1] == "imbea"

    def test_prediction_is_a_power_law_in_edges_alone(self):
        from repro.plan.model import WORK_EXPONENT, WORK_SCALE

        model = CostModel(n_cores=1)
        feats = _zoo_features()
        assert model.serial_seconds(feats) == pytest.approx(
            WORK_SCALE * feats.n_edges ** WORK_EXPONENT
        )
        # no density term: the side sizes do not move the prediction
        denser = _zoo_features(n_u=30, n_v=30)
        assert model.serial_seconds(denser) == model.serial_seconds(feats)

    def test_parallel_prediction_needs_cores_to_win(self):
        feats = _zoo_features()
        solo = CostModel(n_cores=1)
        pooled = CostModel(n_cores=8)
        assert pooled.predict_seconds("parallel", feats) < \
            solo.predict_seconds("parallel", feats)
        # overhead floor: parallel never predicts below the dispatch cost
        assert pooled.predict_seconds("parallel", feats) > 0.35

    def test_fit_recovers_a_planted_model(self):
        records = [
            {"engine": "mbet", "elapsed": 3e-6 * n ** 1.25,
             "complete": True,
             "features": _zoo_features(n_edges=n).as_dict()}
            for n in (1_000, 5_000, 20_000, 80_000)
        ]
        # other engines' cells are not MBET measurements
        records.append({"engine": "imbea", "elapsed": 99.0,
                        "complete": True,
                        "features": _zoo_features().as_dict()})
        scale, exponent = fit_work_model(records)
        assert scale == pytest.approx(3e-6, rel=1e-3)
        assert exponent == pytest.approx(1.25, abs=1e-4)

    def test_fit_skips_incomplete_rows(self):
        records = [
            {"engine": "mbet", "elapsed": 15.0, "complete": False,
             "features": _zoo_features(n_edges=n).as_dict()}
            for n in (1_000, 2_000)
        ]
        with pytest.raises(ValueError, match="two edge counts"):
            fit_work_model(records)

    def test_committed_constants_match_the_committed_snapshot(self):
        from repro.plan.model import WORK_EXPONENT, WORK_SCALE

        cells = _committed_crossover()
        assert fit_work_model(cells) == (WORK_SCALE, WORK_EXPONENT)


# --------------------------------------------------------------------------
# plans


class TestBuildPlan:
    def test_golden_zoo_plan_picks_a_measured_winner(self):
        # the wc signature: the crossover matrix measured the mbet
        # family 3-10x ahead of the pivot baselines there
        plan = build_plan(features=_zoo_features(), n_cores=1)
        assert plan.chosen.engine in {"mbet", "mbetm"}
        assert plan.chosen.ordering == "degree"
        assert plan.budget_seconds >= 5.0
        chain = plan.engine_chain()
        assert chain[0] == plan.chosen.engine
        assert len(chain) == len(set(chain))

    def test_tiny_graph_ranks_by_pool_preference(self, g0):
        plan = build_plan(g0, n_cores=1)
        assert plan.chosen.engine == PLANNER_ENGINES[0]
        assert plan.chosen.ordering == "natural"
        assert any("pool preference" in r for r in plan.chosen.reasons)

    def test_thresholds_reject_incapable_engines(self, g0):
        plan = build_plan(
            g0, min_left=2, min_right=2, n_cores=1,
            engines=("mbet", "mbea", "imbea", "pmbe", "oombea"),
        )
        by_engine = {c.engine: c for c in plan.candidates}
        for engine in ("mbea", "imbea", "pmbe", "oombea"):
            assert not by_engine[engine].eligible
            assert "thresholds" in by_engine[engine].reasons[0]
        assert by_engine["mbet"].eligible

    def test_open_breaker_demotes_but_keeps_engine(self):
        feats = _zoo_features()
        clean = build_plan(features=feats, n_cores=1)
        top = clean.chosen.engine
        plan = build_plan(
            features=feats, n_cores=1, breaker_states={top: "open"}
        )
        assert plan.chosen.engine != top
        chain = plan.engine_chain()
        assert top in chain  # demoted, not disqualified
        assert chain.index(top) == len(chain) - 1
        demoted = next(c for c in plan.candidates if c.engine == top)
        assert demoted.demoted
        assert any("breaker" in r for r in demoted.reasons)

    def test_parallel_needs_multiple_cores_and_enough_work(self):
        feats = _zoo_features()
        single = build_plan(features=feats, n_cores=1)
        para = next(
            c for c in single.candidates if c.engine == "parallel"
        )
        assert not para.eligible and "single-core" in para.reasons[0]
        # plenty of cores but the serial estimate is far below the bar
        fast = build_plan(features=feats, n_cores=16)
        para = next(c for c in fast.candidates if c.engine == "parallel")
        assert not para.eligible
        assert "bar" in para.reasons[0]

    def test_parallel_wins_on_heavy_graph_with_cores(self):
        heavy = _zoo_features(n_edges=300_000)
        plan = build_plan(features=heavy, n_cores=16)
        para = next(c for c in plan.candidates if c.engine == "parallel")
        assert para.eligible
        assert para.workers == 16

    def test_budget_scales_with_prediction_and_clamps(self):
        small = build_plan(features=_zoo_features(), n_cores=1)
        assert small.budget_seconds == pytest.approx(max(
            5.0, 20.0 * small.chosen.predicted_seconds
        ))
        huge = _zoo_features(n_edges=3_000_000)
        assert build_plan(features=huge, n_cores=1).budget_seconds == 600.0

    def test_empty_pool_raises_plan_error(self, g0):
        with pytest.raises(PlanError):
            build_plan(g0, engines=("no_such_engine",))

    def test_explain_lists_every_candidate(self):
        plan = build_plan(features=_zoo_features(), n_cores=1)
        text = plan.explain()
        lines = text.splitlines()
        assert lines[0].startswith("graph")
        assert lines[1].startswith("chosen: engine=")
        assert "budget=" in lines[1] and "predicted=" in lines[1]
        for engine in PLANNER_ENGINES:
            assert any(engine in line for line in lines[3:])
        assert sum("chosen" in line for line in lines[3:]) == 1
        assert any("ineligible" in line for line in lines[3:])

    def test_as_dict_round_trips_through_json(self):
        plan = build_plan(features=_zoo_features(), n_cores=1)
        payload = json.loads(json.dumps(plan.as_dict()))
        assert payload["chosen"]["engine"] == plan.chosen.engine
        assert payload["model_version"] == plan.model_version
        assert len(payload["candidates"]) == len(plan.candidates)

    def test_planner_choice_enumerates_exactly(self, g0):
        from tests.conftest import G0_MAXIMAL

        plan = build_plan(g0, n_cores=1)
        got = run_mbe(g0, plan.chosen.engine).biclique_set()
        assert got == G0_MAXIMAL


# --------------------------------------------------------------------------
# calibration acceptance


class TestCrossoverAcceptance:
    def test_choice_within_1_5x_of_best_on_every_zoo_graph(self):
        """The PR's acceptance bound, pinned against the committed
        snapshot: on every zoo graph the crossover matrix measured, the
        planner's chosen engine must have run within 1.5x of the best
        measured engine."""
        cells = _committed_crossover()
        by_dataset: dict[str, list[dict]] = {}
        for cell in cells:
            by_dataset.setdefault(cell["dataset"], []).append(cell)
        for dataset, row in by_dataset.items():
            complete = [c for c in row if c["complete"]]
            if not complete:
                continue
            best = min(c["elapsed"] for c in complete)
            measured = {c["engine"]: c for c in row}
            feats = PlanFeatures.from_dict(row[0]["features"])
            plan = build_plan(
                features=feats, n_cores=1,
                engines=tuple(measured),
            )
            cell = measured[plan.chosen.engine]
            assert cell["complete"], (
                f"{dataset}: planner chose {plan.chosen.engine}, which "
                f"timed out in the crossover matrix"
            )
            assert cell["elapsed"] <= 1.5 * best, (
                f"{dataset}: {plan.chosen.engine} ran {cell['elapsed']:.2f}s"
                f" vs best {best:.2f}s (> 1.5x)"
            )


    def test_budget_leaves_3x_headroom_on_every_zoo_row(self):
        """A budget exists to stop runaways, never a healthy run: on
        every zoo row the recommended budget is at least 3x the mbet
        time the crossover matrix measured."""
        for cell in _committed_crossover():
            if cell["engine"] != "mbet" or not cell["complete"]:
                continue
            feats = PlanFeatures.from_dict(cell["features"])
            plan = build_plan(features=feats, n_cores=1)
            assert plan.budget_seconds >= 3.0 * cell["elapsed"], (
                f"{cell['dataset']}: budget {plan.budget_seconds:.1f}s vs "
                f"measured mbet {cell['elapsed']:.2f}s"
            )


# --------------------------------------------------------------------------
# off-zoo probes


def _off_zoo_probes() -> dict[str, BipartiteGraph]:
    """Graphs outside the calibration domain: tiny, dense, planted."""
    from repro.bigraph.generators import planted_bicliques, random_bipartite

    probes = {"g0": make_g0()}
    for n_u, n_v, p in ((40, 40, 0.2), (60, 30, 0.3), (30, 30, 0.5)):
        probes[f"random{n_u}x{n_v}p{p}"] = random_bipartite(
            n_u, n_v, p, seed=7
        )
    probes["planted"] = planted_bicliques(
        60, 60, n_blocks=8, block_u=(4, 12), block_v=(4, 12),
        noise_edges=100, seed=7,
    )
    return probes


class TestOffZoo:
    """Outside the zoo the plan stays sane: every probe here enumerates
    in well under a second, so it must run serial mbet under the floor
    budget, with no prediction the size of the old density blow-up."""

    @pytest.mark.parametrize("name", sorted(_off_zoo_probes()))
    def test_probe_plans_serial_mbet_with_floor_budget(self, name):
        feats = PlanFeatures.from_graph(_off_zoo_probes()[name])
        for cores in (1, 2, 16):
            plan = build_plan(features=feats, n_cores=cores)
            assert plan.chosen.engine == "mbet"
            assert plan.budget_seconds == 5.0
            predictions = [
                c.predicted_seconds for c in plan.candidates
                if c.predicted_seconds is not None
            ]
            assert predictions and max(predictions) <= 1.0


# --------------------------------------------------------------------------
# cluster-facing estimates


class TestClusterEstimates:
    def test_recommend_slices_baseline_and_skew(self):
        flat = [10] * 40
        assert recommend_slices(3, flat) == 6  # 2 x workers
        skewed = [1] * 39 + [1000]
        assert recommend_slices(3, skewed) > 6
        # capped by the root count
        assert recommend_slices(8, [5, 5, 5]) == 3
        assert recommend_slices(2, []) == 4
        with pytest.raises(ValueError):
            recommend_slices(0, flat)

    def test_recommend_straggler_factor_grows_with_skew(self):
        assert recommend_straggler_factor([]) == 4.0
        flat = recommend_straggler_factor([10] * 20)
        skewed = recommend_straggler_factor([1] * 19 + [500])
        assert flat < skewed <= 10.0
        assert flat >= 2.0


# --------------------------------------------------------------------------
# CLI


class TestPlanCli:
    def _graph_file(self, tmp_path):
        from repro.bigraph.io import write_edge_list

        path = tmp_path / "g0.txt"
        write_edge_list(make_g0(), path)
        return str(path)

    def test_plan_prints_chosen_line(self, tmp_path, capsys):
        assert main(["plan", "--input", self._graph_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "engine=" in out and "budget=" in out
        assert "--explain" in out

    def test_plan_explain_prints_candidate_table(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path), "--explain"
        ]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out
        assert "chosen" in out and "ineligible" in out

    def test_plan_json_is_machine_readable(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path), "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chosen"]["engine"] in PLANNER_ENGINES
        assert isinstance(payload["candidates"], list)

    def test_plan_respects_engine_pool_and_cores(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path),
            "--engines", "mbea,pmbe", "--cores", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        engines = {c["engine"] for c in payload["candidates"]}
        assert engines == {"mbea", "pmbe"}
        assert payload["n_cores"] == 1

    def test_plan_unknown_pool_exits_2(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path),
            "--engines", "bogus",
        ]) == 2
        assert "no eligible engine" in capsys.readouterr().err

    def test_run_without_algorithm_uses_planner(self, tmp_path, capsys):
        assert main(["run", "--input", self._graph_file(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "planned: engine=" in captured.err
        assert "6 maximal bicliques" in captured.out

    def test_run_explicit_algorithm_skips_planner(self, tmp_path, capsys):
        assert main([
            "run", "--input", self._graph_file(tmp_path),
            "--algorithm", "mbea",
        ]) == 0
        captured = capsys.readouterr()
        assert "planned:" not in captured.err
        assert "mbea" in captured.out
