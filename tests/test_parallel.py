"""Tests for the parallel driver (task construction, slices, agreement)."""

from __future__ import annotations

import random

import pytest

from repro import run_mbe
from repro.core.parallel import ParallelMBE
from repro.datasets import load
from tests.conftest import G0_MAXIMAL, random_bigraph


class TestConstruction:
    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ParallelMBE(workers=0)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            ParallelMBE(bound_height=0)
        with pytest.raises(ValueError):
            ParallelMBE(bound_size=-1)

    def test_runtime_option_validation(self):
        with pytest.raises(ValueError):
            ParallelMBE(max_retries=-1)
        with pytest.raises(ValueError):
            ParallelMBE(retry_backoff=-0.1)
        with pytest.raises(ValueError):
            ParallelMBE(task_timeout=0)

    def test_limits_supported(self, g0):
        from repro.runtime import RunBudget

        algo = ParallelMBE(workers=1)
        result = algo.run(g0, budget=RunBudget(max_bicliques=3))
        assert result.complete is False
        assert result.count == 3
        assert len(result.bicliques) == 3
        assert result.meta["stopped"] == "max_bicliques"
        assert result.biclique_set() <= G0_MAXIMAL


class TestTaskBuilding:
    def test_tasks_cover_every_active_vertex(self, g0):
        algo = ParallelMBE(workers=2, bound_height=10_000, bound_size=10_000)
        tasks = algo._make_tasks(g0)
        assert {t[0] for t in tasks} == {0, 1, 2, 3}
        assert all(t[1:] == (0, 1) for t in tasks)  # no splits

    def test_isolated_vertices_excluded(self):
        from repro import BipartiteGraph

        g = BipartiteGraph([(0, 0)], n_u=3, n_v=3)
        tasks = ParallelMBE(workers=1)._make_tasks(g)
        assert {t[0] for t in tasks} == {0}

    def test_splitting_produces_partitioned_slices(self, g0):
        algo = ParallelMBE(workers=2, bound_height=1, bound_size=1)
        tasks = algo._make_tasks(g0)
        by_v: dict[int, list[tuple[int, int]]] = {}
        for v, part, n_parts in tasks:
            by_v.setdefault(v, []).append((part, n_parts))
        for v, slices in by_v.items():
            n_parts = slices[0][1]
            assert all(n == n_parts for _, n in slices)
            assert sorted(p for p, _ in slices) == list(range(n_parts))

    def test_large_tasks_first(self):
        g = load("mti")
        tasks = ParallelMBE(workers=2)._make_tasks(g)
        assert len(tasks) > 0  # LPT order is checked implicitly by sort


class TestAgreement:
    def test_g0_all_configurations(self, g0):
        for workers in (1, 2):
            for bounds in ({}, {"bound_height": 1, "bound_size": 1}):
                result = run_mbe(g0, "parallel", workers=workers, **bounds)
                assert result.biclique_set() == G0_MAXIMAL
                assert result.meta["workers"] == workers

    def test_random_graphs_with_aggressive_splitting(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_bigraph(rng)
            truth = run_mbe(g, "bruteforce").biclique_set()
            got = run_mbe(
                g, "parallel", workers=2, bound_height=1, bound_size=1
            ).biclique_set()
            assert got == truth

    def test_counts_match_mbet_on_dataset(self):
        g = load("mti")
        serial = run_mbe(g, "mbet", collect=False).count
        parallel = run_mbe(g, "parallel", workers=2, collect=False).count
        assert parallel == serial

    def test_forced_split_runs_the_engine_store(self):
        """Root-slice tasks build MBET's own traversed-set store: they
        honour ``use_trie=False`` and report its node-check stats."""
        from repro.core.parallel import addressable_roots

        g = load("mti")
        result = run_mbe(
            g, "parallel", workers=1, bound_height=1, bound_size=1,
            engine_options={"use_trie": False},
        )
        assert result.meta["tasks"] > len(addressable_roots(g))  # split
        assert result.stats.checks > 0
        assert result.stats.trie_peak_nodes == 0
        assert result.biclique_set() == run_mbe(g, "mbet").biclique_set()

    def test_stats_aggregated(self, g0):
        result = run_mbe(g0, "parallel", workers=1, collect=False)
        assert result.stats.subtrees > 0
        assert result.stats.maximal == result.count == 6

    def test_orientation(self, g0):
        result = run_mbe(
            g0.swap_sides(), "parallel", workers=1, orient_smaller_v=True
        )
        assert result.biclique_set() == {b.swap() for b in G0_MAXIMAL}


class TestBudgets:
    """Limits are now supported in parallel mode (formerly NotImplementedError)."""

    def test_max_bicliques_pooled(self, g0):
        result = run_mbe(
            g0, "parallel", workers=2, max_bicliques=3, retry_backoff=0.01
        )
        assert result.complete is False
        assert result.count == 3
        assert result.meta["stopped"] == "max_bicliques"
        assert result.biclique_set() <= G0_MAXIMAL

    def test_generous_cap_stays_complete(self, g0):
        result = run_mbe(g0, "parallel", workers=1, max_bicliques=1_000)
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL

    def test_time_limit_partial_not_raising(self):
        # A deadline that has effectively already passed: the run must come
        # back partial (possibly empty) instead of raising.
        g = load("mti")
        result = run_mbe(g, "parallel", workers=1, time_limit=1e-9)
        assert result.complete is False
        assert result.meta["stopped"] == "time_limit"
        serial = run_mbe(g, "mbet", collect=False).count
        assert result.count <= serial


def _crash_plan(g, **overrides):
    """Fault plan targeting the root with the largest subtree of ``g``."""
    from repro.runtime import FaultPlan

    tasks = ParallelMBE(workers=2)._make_tasks(g)
    victim = tasks[0][0]
    options = {"crash_tasks": (victim,)}
    options.update(overrides)
    return FaultPlan(**options), victim


class TestFaultRecovery:
    def test_inline_crash_retries_to_completion(self, g0):
        faults, _victim = _crash_plan(g0, crash_attempts=1)
        result = run_mbe(
            g0, "parallel", workers=1, faults=faults,
            max_retries=2, retry_backoff=0.0,
        )
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL
        assert result.meta["retries"] >= 1

    def test_dropped_task_is_not_complete(self, g0, monkeypatch):
        # an executor that silently loses a task records no failure;
        # "complete" must still come out False from the task account
        from repro.runtime.executor import ResilientExecutor

        run_serial = ResilientExecutor.run_serial
        monkeypatch.setattr(
            ResilientExecutor, "run_serial",
            lambda self, tasks: run_serial(self, tasks[1:]),
        )
        result = run_mbe(g0, "parallel", workers=1)
        assert not result.meta.get("failures")
        assert result.complete is False

    def test_inline_permanent_crash_partial(self, g0):
        faults, victim = _crash_plan(g0, crash_attempts=99)
        result = run_mbe(
            g0, "parallel", workers=1, faults=faults,
            max_retries=1, retry_backoff=0.0,
        )
        assert result.complete is False
        assert result.biclique_set() < G0_MAXIMAL
        failed_roots = {f["task"][0] for f in result.meta["failures"]}
        assert victim in failed_roots

    def test_pooled_crash_retries_to_completion(self, g0):
        faults, _victim = _crash_plan(g0, crash_attempts=1)
        result = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            max_retries=3, retry_backoff=0.01,
        )
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL
        assert result.meta["pool_restarts"] >= 1

    def test_pooled_worker_death_partial_no_exception(self, g0):
        # Kill 1 of 2 workers on every attempt of one task: the run must
        # return partial results with failure records, never raise.
        faults, victim = _crash_plan(g0, crash_attempts=99)
        result = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            max_retries=1, retry_backoff=0.01,
        )
        assert result.complete is False
        assert result.count >= 1  # healthy subtrees still delivered
        assert result.biclique_set() < G0_MAXIMAL
        failed_roots = {f["task"][0] for f in result.meta["failures"]}
        assert victim in failed_roots
        for failure in result.meta["failures"]:
            assert failure["attempts"] >= 2  # retried before giving up


class TestCheckpointResume:
    def test_resume_after_crash_matches_uninterrupted(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        faults, _victim = _crash_plan(g0, crash_attempts=99)
        first = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            max_retries=1, retry_backoff=0.01, checkpoint=path,
        )
        assert first.complete is False
        second = run_mbe(g0, "parallel", workers=2, checkpoint=path)
        assert second.complete is True
        assert second.biclique_set() == G0_MAXIMAL
        assert second.meta["resumed_tasks"] >= 1

    def test_resume_skips_completed_work(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        first = run_mbe(g0, "parallel", workers=1, checkpoint=path)
        assert first.complete is True
        second = run_mbe(g0, "parallel", workers=1, checkpoint=path)
        assert second.complete is True
        assert second.biclique_set() == G0_MAXIMAL
        assert second.meta["resumed_tasks"] == second.meta["tasks"]
        assert second.meta.get("completed_tasks", 0) == 0

    def test_resume_on_dataset_with_splitting(self, tmp_path):
        g = load("mti")
        path = tmp_path / "mti.ckpt"
        faults, _victim = _crash_plan(g, crash_attempts=99)
        first = run_mbe(
            g, "parallel", workers=2, bound_height=1, bound_size=64,
            faults=faults, max_retries=1, retry_backoff=0.01, checkpoint=path,
        )
        assert first.complete is False
        second = run_mbe(
            g, "parallel", workers=2, bound_height=1, bound_size=64,
            checkpoint=path,
        )
        truth = run_mbe(g, "mbet").biclique_set()
        assert second.complete is True
        assert second.biclique_set() == truth

    def test_mismatched_checkpoint_rejected(self, g0, tmp_path):
        from repro.runtime import CheckpointError

        path = tmp_path / "g0.ckpt"
        run_mbe(g0, "parallel", workers=1, checkpoint=path)
        with pytest.raises(CheckpointError, match="different run"):
            run_mbe(g0, "parallel", workers=1, seed=7, checkpoint=path)

    def test_threshold_change_invalidates_checkpoint(self, g0, tmp_path):
        # min_left/min_right are part of the run's identity: resuming an
        # unconstrained checkpoint under thresholds would silently keep
        # the unconstrained results
        from repro.runtime import CheckpointError

        path = tmp_path / "g0.ckpt"
        run_mbe(g0, "parallel", workers=1, checkpoint=path)
        with pytest.raises(CheckpointError, match="min_left"):
            run_mbe(g0, "parallel", workers=1, min_left=2, checkpoint=path)

    def test_constrained_resume_matches_serial(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        faults, _victim = _crash_plan(g0, crash_attempts=99)
        first = run_mbe(
            g0, "parallel", workers=1, min_left=2, min_right=2,
            faults=faults, max_retries=1, retry_backoff=0.01,
            checkpoint=path,
        )
        assert first.complete is False
        second = run_mbe(
            g0, "parallel", workers=1, min_left=2, min_right=2,
            checkpoint=path,
        )
        truth = run_mbe(g0, "mbet", min_left=2, min_right=2).biclique_set()
        assert second.complete is True
        assert second.biclique_set() == truth
        assert second.count == len(truth)

    def test_checkpoint_survives_torn_tail(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        run_mbe(g0, "parallel", workers=1, checkpoint=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"task","key":"9:')  # killed mid-write
        result = run_mbe(g0, "parallel", workers=1, checkpoint=path)
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL


@pytest.mark.stress
class TestStallRecovery:
    def test_hung_worker_terminated_and_retried(self, g0):
        from repro.runtime import FaultPlan

        tasks = ParallelMBE(workers=2)._make_tasks(g0)
        victim = tasks[0][0]
        faults = FaultPlan(
            hang_tasks=(victim,), hang_seconds=60.0, hang_attempts=1
        )
        result = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            task_timeout=1.0, max_retries=2, retry_backoff=0.01,
        )
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL
        assert result.meta["pool_restarts"] >= 1
