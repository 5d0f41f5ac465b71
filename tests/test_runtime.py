"""Tests for the resilient runtime: budgets, faults, checkpoints, executor."""

from __future__ import annotations

import json
import time

import pytest

from repro import BipartiteGraph, run_mbe
from repro.runtime import (
    NULL_GUARD,
    BudgetExceeded,
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    ExecutionReport,
    FaultPlan,
    InjectedWorkerCrash,
    ResilientExecutor,
    RunBudget,
    load_checkpoint,
    reconcile_tasks,
    task_key,
)


def barren_graph(n_u: int = 40, n_v: int = 1200) -> BipartiteGraph:
    """Every V vertex carries the identical full-U neighborhood.

    Exactly one maximal biclique exists; all but one root is
    containment-pruned, so enumeration spends its whole life inside the
    decomposition without reporting anything — the adversarial input for
    deadline enforcement.
    """
    return BipartiteGraph([(u, v) for v in range(n_v) for u in range(n_u)])


class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunBudget(time_limit=0).validate()
        with pytest.raises(ValueError):
            RunBudget(max_bicliques=-1).validate()
        with pytest.raises(ValueError):
            RunBudget(max_nodes=0).validate()
        with pytest.raises(ValueError):
            RunBudget(check_interval=0).validate()

    def test_unbounded(self):
        assert RunBudget().unbounded
        assert not RunBudget(max_nodes=5).unbounded
        assert not RunBudget(cancel=lambda: False).unbounded

    def test_tick_is_amortized(self):
        calls = []
        guard = RunBudget(cancel=lambda: calls.append(1) or False,
                          check_interval=4).arm()
        for _ in range(16):
            guard.tick()
        assert len(calls) == 4  # probed every 4th tick only

    def test_max_nodes_trips(self):
        guard = RunBudget(max_nodes=10, check_interval=1).arm()
        with pytest.raises(BudgetExceeded) as exc:
            for _ in range(100):
                guard.tick()
        assert exc.value.reason == "max_nodes"
        assert guard.reason == "max_nodes"

    def test_deadline_trips_check_now(self):
        guard = RunBudget(time_limit=0.01).arm()
        time.sleep(0.02)
        with pytest.raises(BudgetExceeded) as exc:
            guard.check_now()
        assert exc.value.reason == "time_limit"

    def test_cancel_trips(self):
        guard = RunBudget(cancel=lambda: True).arm()
        with pytest.raises(BudgetExceeded) as exc:
            guard.check_now()
        assert exc.value.reason == "cancelled"

    def test_on_report_enforces_cap_exactly(self):
        guard = RunBudget(max_bicliques=3).arm()
        guard.on_report(1)
        guard.on_report(2)
        with pytest.raises(BudgetExceeded) as exc:
            guard.on_report(3)
        assert exc.value.reason == "max_bicliques"

    def test_null_guard_is_inert(self):
        NULL_GUARD.tick()
        NULL_GUARD.check_now()
        NULL_GUARD.on_report(10**9)
        assert NULL_GUARD.remaining() is None


class TestDeadlineBinding:
    """The acceptance bound: a deadline fires within 2x its value even on
    a graph that never reports a biclique."""

    @pytest.mark.parametrize("algo", ["mbet", "mbetm"])
    def test_barren_graph_terminates_within_2x(self, algo):
        g = barren_graph()
        t = 0.3
        start = time.perf_counter()
        result = run_mbe(g, algo, collect=False, time_limit=t)
        elapsed = time.perf_counter() - start
        assert result.complete is False
        assert result.meta["stopped"] == "time_limit"
        assert elapsed < 2 * t

    def test_max_nodes_budget(self):
        from repro.bigraph.generators import random_bipartite

        g = random_bipartite(30, 30, 0.3, seed=1)
        full = run_mbe(g, "mbet", collect=False)
        assert full.stats.nodes > 50
        capped = run_mbe(
            g, "mbet", collect=False,
            budget=RunBudget(max_nodes=50, check_interval=1),
        )
        assert capped.complete is False
        assert capped.meta["stopped"] == "max_nodes"
        assert capped.count < full.count

    def test_external_cancel(self, g0):
        result = run_mbe(
            g0, "mbet", budget=RunBudget(cancel=lambda: True)
        )
        assert result.complete is False
        assert result.meta["stopped"] == "cancelled"

    def test_progressive_iterator_respects_budget(self, g0):
        from repro.core.mbetm import MBETM

        algo = MBETM()
        out = list(algo.iter_bicliques(g0, budget=RunBudget(cancel=lambda: True)))
        assert out == []  # budget tripped before the first subtree
        # a result cap binds exactly, mid-subtree included
        capped = list(algo.iter_bicliques(g0, budget=RunBudget(max_bicliques=4)))
        full = run_mbe(g0, "mbetm").biclique_set()
        assert len(capped) == 4
        assert {b for _, b in capped} <= full


class TestFaultPlan:
    def test_deterministic_decisions(self):
        plan = FaultPlan(seed=3, crash_rate=0.5)
        first = [plan.decide((v, 0, 1), 0) for v in range(50)]
        second = [plan.decide((v, 0, 1), 0) for v in range(50)]
        assert first == second
        assert "crash" in first and None in first

    def test_targets_match_root_and_slice(self):
        plan = FaultPlan(crash_tasks=(7, (9, 1)))
        assert plan.decide((7, 0, 1), 0) == "crash"
        assert plan.decide((7, 3, 8), 0) == "crash"  # any slice of root 7
        assert plan.decide((9, 1, 4), 0) == "crash"
        assert plan.decide((9, 0, 4), 0) is None
        assert plan.decide((8, 0, 1), 0) is None

    def test_attempt_gating(self):
        plan = FaultPlan(crash_tasks=(1,), crash_attempts=2)
        assert plan.decide((1, 0, 1), 0) == "crash"
        assert plan.decide((1, 0, 1), 1) == "crash"
        assert plan.decide((1, 0, 1), 2) is None  # retried past the faults

    def test_inline_crash_raises(self):
        plan = FaultPlan(crash_tasks=(1,))
        with pytest.raises(InjectedWorkerCrash):
            plan.apply((1, 0, 1), 0, inline=True)
        plan.apply((2, 0, 1), 0, inline=True)  # untargeted: no-op


class TestCheckpointFile:
    FP = {"n_u": 3, "n_v": 2, "seed": 0}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, self.FP)
        writer.record((4, 0, 1), 2, {"nodes": 7}, None)
        writer.record((5, 1, 3), 1, {}, None)
        writer.close()
        ckpt = load_checkpoint(path)
        assert ckpt is not None and ckpt.matches(self.FP)
        assert set(ckpt.records) == {"4:0:1", "5:1:3"}
        assert ckpt.records["4:0:1"]["count"] == 2

    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.ckpt") is None

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, self.FP)
        writer.record((4, 0, 1), 2, {}, None)
        writer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"task","key":"5:0')
        ckpt = load_checkpoint(path)
        assert set(ckpt.records) == {"4:0:1"}

    def test_malformed_interior_line_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, self.FP)
        writer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('{"type":"task","key":"4:0:1","task":[4,0,1]}\n')
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_midfile_error_carries_file_and_line(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, self.FP)
        writer.record((4, 0, 1), 2, {}, None)
        writer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, '{"half a record')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match=r"run\.ckpt:2:"):
            load_checkpoint(path)

    def test_torn_tail_tolerated_but_same_damage_midfile_is_not(
        self, tmp_path
    ):
        # the same byte damage is recoverable at the tail (a torn final
        # write) and fatal anywhere else — the distinction under test
        damage = '{"type":"task","key":"9:0'
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, self.FP)
        writer.record((4, 0, 1), 2, {}, None)
        writer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(damage)
        assert set(load_checkpoint(path).records) == {"4:0:1"}  # tail: ok
        with open(path, "a", encoding="utf-8") as handle:
            # a later write landed after the damage: now it is mid-file
            handle.write('\n{"type":"task","key":"5:0:1","task":[5,0,1],'
                         '"count":0,"stats":{},"bicliques":null}\n')
        with pytest.raises(CheckpointError, match="mid-file"):
            load_checkpoint(path)

    def test_non_object_record_rejected_even_at_the_tail(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointWriter(path, self.FP).close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutation,match", [
        ({"count": "two"}, "count"),
        ({"count": -1}, "count"),
        ({"stats": None}, "stats"),
        ({"task": [4, 0]}, "triple"),
        ({"key": None}, "key"),
        ({"bicliques": [[1, 2, 3]]}, "pairs"),
    ])
    def test_mistyped_task_fields_rejected_with_location(
        self, tmp_path, mutation, match
    ):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, self.FP)
        writer.record((4, 0, 1), 2, {}, None)
        writer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[1])
        rec.update(mutation)
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match=match) as exc:
            load_checkpoint(path)
        assert ":2:" in str(exc.value)

    def test_fingerprint_mismatch_names_fields(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointWriter(path, self.FP).close()
        ckpt = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="seed"):
            ckpt.require_match(dict(self.FP, seed=9), str(path))

    def test_rewrite_compacts_torn_tail(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, self.FP)
        writer.record((4, 0, 1), 2, {}, None)
        writer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        carried = list(load_checkpoint(path).records.values())
        CheckpointWriter(path, self.FP, resume_records=carried).close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(ln) for ln in lines)  # every line valid again
        assert len(lines) == 2  # header + carried record


class TestReconcile:
    FP = {"n": 1}

    def _ckpt(self, records):
        ckpt = Checkpoint(header=dict(self.FP, type="header"))
        for task, extra in records:
            rec = {"type": "task", "key": task_key(task), "task": list(task),
                   "count": 0, "stats": {}, "bicliques": None}
            rec.update(extra)
            ckpt.records[rec["key"]] = rec
        return ckpt

    def test_whole_task_done(self):
        ckpt = self._ckpt([((3, 0, 1), {"count": 5})])
        remaining, done = reconcile_tasks([(3, 0, 1), (4, 0, 1)], ckpt, "p")
        assert remaining == [(4, 0, 1)]
        assert [d["count"] for d in done] == [5]

    def test_partial_slices_rescheduled(self):
        ckpt = self._ckpt([((3, 0, 4), {}), ((3, 2, 4), {})])
        tasks = [(3, p, 4) for p in range(4)]
        remaining, done = reconcile_tasks(tasks, ckpt, "p")
        assert remaining == [(3, 1, 4), (3, 3, 4)]
        assert len(done) == 2

    def test_recorded_slicing_overrides_current(self):
        # run 1 split root 3 into 2 slices on retry; run 2's fresh task
        # list holds the unsplit task — resume must follow the records.
        ckpt = self._ckpt([((3, 0, 2), {})])
        remaining, done = reconcile_tasks([(3, 0, 1)], ckpt, "p")
        assert remaining == [(3, 1, 2)]
        assert len(done) == 1

    def test_mixed_slice_counts_rejected(self):
        ckpt = self._ckpt([((3, 0, 2), {}), ((3, 0, 4), {})])
        with pytest.raises(CheckpointError, match="inconsistent"):
            reconcile_tasks([(3, 0, 1)], ckpt, "p")


class TestResilientExecutor:
    """Serial-mode unit tests; the pooled path is covered end to end by
    test_parallel.py's fault-recovery tests."""

    def _executor(self, results, **kw):
        def on_result(task, outcome):
            results.append((task, outcome))
        kw.setdefault("max_retries", 2)
        kw.setdefault("backoff", 0.0)
        return dict(on_result=on_result, **kw)

    def test_serial_retries_then_succeeds(self):
        seen, results = [], []
        def flaky(task, attempt):
            seen.append((task, attempt))
            if attempt == 0:
                raise RuntimeError("boom")
            return task[0] * 10
        ex = ResilientExecutor(task_fn=flaky, **self._executor(results))
        report = ex.run_serial([(1, 0, 1), (2, 0, 1)])
        assert isinstance(report, ExecutionReport)
        assert report.completed == 2 and not report.failures
        assert report.retries == 2
        assert sorted(r[1] for r in results) == [10, 20]

    def test_serial_permanent_failure_recorded(self):
        def always(task, attempt):
            raise RuntimeError("dead")
        ex = ResilientExecutor(
            task_fn=always, **self._executor([], max_retries=1)
        )
        report = ex.run_serial([(1, 0, 1)])
        assert report.completed == 0
        assert len(report.failures) == 1
        assert report.failures[0].attempts == 2
        assert "dead" in report.failures[0].error

    def test_split_on_retry(self):
        ran = []
        def crash_whole(task, attempt):
            if task[2] == 1:
                raise RuntimeError("too big")
            ran.append(task)
            return task
        def split(task, attempts):
            return [(task[0], p, 2) for p in range(2)] if task[2] == 1 else None
        ex = ResilientExecutor(
            task_fn=crash_whole, split_fn=split, **self._executor([])
        )
        report = ex.run_serial([(5, 0, 1)])
        assert sorted(ran) == [(5, 0, 2), (5, 1, 2)]
        assert report.completed == 2 and not report.failures

    def test_deadline_stops_scheduling(self):
        ex = ResilientExecutor(
            task_fn=lambda t, a: t,
            deadline=time.monotonic() - 1.0,
            **self._executor([]),
        )
        report = ex.run_serial([(1, 0, 1)])
        assert report.stopped == "time_limit"
        assert report.completed == 0

    def test_cancel_stops_between_tasks(self):
        done = []
        ex = ResilientExecutor(
            task_fn=lambda t, a: done.append(t),
            cancel=lambda: len(done) >= 1,
            **self._executor([]),
        )
        report = ex.run_serial([(1, 0, 1), (2, 0, 1), (3, 0, 1)])
        assert report.stopped == "cancelled"
        assert len(done) == 1

    def test_submit_failure_drains_in_flight_tasks(self):
        # a pool that breaks on submit still holds futures already in
        # flight; they must be collected or requeued, never abandoned
        from concurrent.futures import ThreadPoolExecutor

        class RefusesSecondSubmit(ThreadPoolExecutor):
            submits = 0

            def submit(self, *args, **kwargs):
                RefusesSecondSubmit.submits += 1
                if RefusesSecondSubmit.submits == 2:
                    raise RuntimeError("cannot schedule new futures")
                return super().submit(*args, **kwargs)

        results = []
        ex = ResilientExecutor(
            task_fn=lambda task, attempt: task[0],
            pool_factory=lambda: RefusesSecondSubmit(max_workers=2),
            max_inflight=2,
            **self._executor(results),
        )
        report = ex.run([(i, 0, 1) for i in range(4)])
        assert sorted(r[1] for r in results) == [0, 1, 2, 3]
        assert report.completed == 4 and not report.failures

    def test_split_growth_accounts_for_replacements(self):
        def crash_whole(task, attempt):
            if task[2] == 1:
                raise RuntimeError("too big")
            return task
        ex = ResilientExecutor(
            task_fn=crash_whole,
            split_fn=lambda task, attempts: [(task[0], p, 3) for p in range(3)],
            **self._executor([]),
        )
        report = ex.run_serial([(5, 0, 1), (6, 0, 1)])
        assert report.split_growth == 4
        assert report.completed == 2 + report.split_growth
