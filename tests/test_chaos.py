"""Tests for the unified chaos engine (repro.chaos).

Unit-tests the seeded schedule (determinism, occurrence gating,
round-trip), the disk and network shims in isolation, the invariant
checkers, and one full scenario cell through the runner.  The
scenario-level evidence for the serve/cluster layers lives with those
subsystems (tests/test_serve.py, tests/test_cluster.py) and in the CI
chaos smoke (tools/chaos_smoke.py).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.chaos import DISK_FAULTS, NET_FAULTS, FaultRule, FaultSchedule
from repro.chaos import fs as chaos_fs
from repro.chaos import net as chaos_net
from repro.chaos.invariants import (
    exact_result_set,
    no_duplicates,
    seam_fired,
    task_ledger,
)


def _drive(schedule, ops):
    """Run a fixed operation sequence; return the fault names decided."""
    return [
        (rule.fault if rule is not None else None)
        for rule in (
            schedule.decide(seam, op, target) for seam, op, target in ops
        )
    ]


OPS = [
    ("disk", "write", "/tmp/x/journal.jsonl"),
    ("disk", "write", "/tmp/x/journal.jsonl"),
    ("disk", "write", "/tmp/x/checkpoint.jsonl"),
    ("net", "GET", "/jobs/j-abc123456789"),
    ("net", "POST", "/slices"),
    ("disk", "write", "/tmp/x/journal.jsonl"),
    ("net", "GET", "/jobs/j-def987654321"),
]


class TestFaultSchedule:
    def test_same_seed_same_trace(self):
        rules = (
            FaultRule("disk", "torn_write", match="journal", op="write",
                      rate=0.5),
            FaultRule("net", "timeout", op="GET", rate=0.5),
        )
        a = FaultSchedule(seed=7, rules=rules)
        b = FaultSchedule(seed=7, rules=rules)
        assert _drive(a, OPS * 20) == _drive(b, OPS * 20)
        assert a.trace() == b.trace()

    def test_different_seeds_differ(self):
        rules = (
            FaultRule("disk", "torn_write", match="journal", op="write",
                      rate=0.5),
        )
        ops = [("disk", "write", f"/tmp/f{i}/journal.jsonl")
               for i in range(64)]
        a = _drive(FaultSchedule(seed=0, rules=rules), ops)
        b = _drive(FaultSchedule(seed=1, rules=rules), ops)
        assert a != b

    def test_after_skips_then_max_fires_caps(self):
        schedule = FaultSchedule(seed=0, rules=(
            FaultRule("disk", "enospc", match="journal", op="write",
                      after=2, max_fires=1),
        ))
        ops = [("disk", "write", "/j/journal.jsonl")] * 5
        assert _drive(schedule, ops) == [
            None, None, "enospc", None, None,
        ]
        assert schedule.fired_by_seam() == {"disk": 1}

    def test_match_and_op_filter(self):
        schedule = FaultSchedule(seed=0, rules=(
            FaultRule("disk", "enospc", match="journal", op="write"),
        ))
        assert schedule.decide("disk", "write", "/a/other.jsonl") is None
        assert schedule.decide("disk", "replace", "/a/journal.jsonl") is None
        assert schedule.decide("net", "write", "/a/journal.jsonl") is None
        rule = schedule.decide("disk", "write", "/a/journal.jsonl")
        assert rule is not None and rule.fault == "enospc"

    def test_round_trip_preserves_decisions(self):
        original = FaultSchedule(
            seed=3,
            rules=(
                FaultRule("disk", "bitflip", match="artifacts",
                          op="write", rate=0.4),
                FaultRule("net", "slow", op="GET", rate=0.3,
                          seconds=0.01),
            ),
            process={"crash_rate": 0.25, "slow_rate": 1.0,
                     "slow_seconds": 0.001},
        )
        payload = json.loads(json.dumps(original.as_dict()))
        clone = FaultSchedule.from_dict(payload)
        ops = [("disk", "write", f"/s/artifacts/e{i}.json")
               for i in range(32)]
        ops += [("net", "GET", f"/jobs/j-{i:012x}") for i in range(32)]
        assert _drive(original, ops) == _drive(clone, ops)

    def test_validation_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            FaultRule("disk", "reset")  # a net fault on the disk seam
        with pytest.raises(ValueError):
            FaultRule("net", "torn_write")
        with pytest.raises(ValueError):
            FaultRule("process", "crash")  # process rides the FaultPlan
        with pytest.raises(ValueError):
            FaultRule("disk", "enospc", rate=1.5)
        with pytest.raises(TypeError):
            FaultSchedule(process={"no_such_knob": 1})
        assert "torn_write" in DISK_FAULTS and "reset" in NET_FAULTS

    def test_process_seam_records_into_the_same_trace(self):
        schedule = FaultSchedule(seed=0, process={"slow_rate": 1.0,
                                                  "slow_seconds": 0.0})
        plan = schedule.to_fault_plan()
        assert plan.decide((4, 0, 2), 0) == "slow"
        plan.apply((4, 0, 2), 0, inline=True)
        fired = schedule.fired_by_seam()
        assert fired.get("process") == 1
        assert schedule.trace()[0]["fault"] == "slow"


class TestDiskShim:
    def _schedule(self, fault, **kw):
        return FaultSchedule(seed=0, rules=(
            FaultRule("disk", fault, match="victim", **kw),
        ))

    def test_inactive_shim_is_a_passthrough(self, tmp_path):
        path = tmp_path / "victim.txt"
        assert not chaos_fs.is_active()
        with chaos_fs.open(path, "w", encoding="utf-8") as handle:
            handle.write("hello\n")
        assert path.read_text() == "hello\n"

    def test_torn_write_persists_a_prefix_and_raises(self, tmp_path):
        path = tmp_path / "victim.txt"
        with chaos_fs.active(self._schedule("torn_write", op="write")):
            handle = chaos_fs.open(path, "w", encoding="utf-8")
            with pytest.raises(OSError):
                handle.write("0123456789abcdef\n")
            handle.close()
        data = path.read_text()
        assert 0 < len(data) < len("0123456789abcdef\n")
        assert "0123456789abcdef\n".startswith(data)

    def test_enospc_writes_nothing(self, tmp_path):
        path = tmp_path / "victim.txt"
        with chaos_fs.active(self._schedule("enospc", op="write")):
            handle = chaos_fs.open(path, "w", encoding="utf-8")
            with pytest.raises(OSError) as excinfo:
                handle.write("data\n")
            handle.close()
        assert excinfo.value.errno == 28  # ENOSPC
        assert path.read_text() == ""

    def test_bitflip_corrupts_silently_same_length(self, tmp_path):
        path = tmp_path / "victim.txt"
        payload = "a" * 64 + "\n"
        with chaos_fs.active(self._schedule("bitflip", op="write")):
            with chaos_fs.open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)  # no exception: the rot is silent
        data = path.read_text()
        assert len(data) == len(payload)
        assert data != payload

    def test_replace_error_and_lost_fsync(self, tmp_path):
        src = tmp_path / "src.txt"
        dst = tmp_path / "victim.txt"
        src.write_text("x")
        schedule = FaultSchedule(seed=0, rules=(
            FaultRule("disk", "replace_error", match="victim",
                      op="replace"),
            FaultRule("disk", "lost_fsync", match="victim", op="fsync"),
        ))
        with chaos_fs.active(schedule):
            with pytest.raises(OSError):
                chaos_fs.replace(src, dst)
            with open(src, "w") as handle:
                # silently dropped instead of hitting the real fsync
                chaos_fs.fsync(handle.fileno(), str(dst))
        assert os.path.exists(src) and not os.path.exists(dst)
        assert schedule.fired_by_seam() == {"disk": 2}


class TestNetShim:
    def _apply(self, schedule, method="GET", path="/jobs/j-1"):
        calls = []

        def send():
            calls.append(1)
            return 200, {"ok": True}

        with chaos_net.active(schedule):
            result = chaos_net.apply("http://w", method, path, send)
        return result, len(calls)

    def _schedule(self, fault, **kw):
        return FaultSchedule(seed=0, rules=(
            FaultRule("net", fault, **kw),
        ))

    def test_reset_never_delivers(self):
        with pytest.raises(chaos_net.ChaosConnectionReset):
            self._apply(self._schedule("reset"))

    def test_timeout_delivers_but_loses_the_response(self):
        calls = []

        def send():
            calls.append(1)
            return 200, {}

        with chaos_net.active(self._schedule("timeout")):
            with pytest.raises(chaos_net.ChaosTimeout):
                chaos_net.apply("http://w", "GET", "/jobs/j-1", send)
        assert calls == [1]  # the ambiguous case: side effects landed

    def test_http_500_swallows_the_request(self):
        (status, body), sends = self._apply(self._schedule("http_500"))
        assert status == 500 and sends == 0
        assert "error" in body

    def test_duplicate_sends_twice(self):
        (status, _body), sends = self._apply(self._schedule("duplicate"))
        assert status == 200 and sends == 2

    def test_slow_delays_then_delivers(self):
        (status, _body), sends = self._apply(
            self._schedule("slow", seconds=0.0)
        )
        assert status == 200 and sends == 1

    def test_exceptions_subclass_what_the_client_catches(self):
        assert issubclass(chaos_net.ChaosConnectionReset, ConnectionError)
        assert issubclass(chaos_net.ChaosTimeout, TimeoutError)


class TestInvariants:
    def test_exact_result_set_reports_missing_and_spurious(self):
        ref = {((0,), (0, 1)), ((1,), (0,))}
        assert exact_result_set(ref, [[[0], [0, 1]], [[1], [0]]]).ok
        bad = exact_result_set(ref, [[[0], [0, 1]], [[9], [9]]])
        assert not bad.ok
        assert "1 missing" in bad.detail and "1 spurious" in bad.detail

    def test_no_duplicates_catches_a_double_merge(self):
        assert no_duplicates([[[0], [1]], [[2], [3]]]).ok
        assert not no_duplicates([[[0], [1]], [[0], [1]]]).ok

    def test_seam_fired_demands_evidence(self):
        schedule = FaultSchedule(seed=0, rules=(
            FaultRule("disk", "enospc", match="journal", op="write"),
        ))
        assert not seam_fired(schedule, "disk").ok
        schedule.decide("disk", "write", "/x/journal.jsonl")
        assert seam_fired(schedule, "disk").ok

    def test_task_ledger_catches_a_complete_run_missing_a_task(self, g0):
        from repro import run_mbe

        result = run_mbe(g0, "parallel", workers=1)
        check = task_ledger(result, label="resume")
        assert check.ok and check.invariant == "task_ledger:resume"
        result.meta["completed_tasks"] -= 1
        assert not task_ledger(result).ok


class TestRunnerAndCatalogue:
    def test_catalogue_covers_every_seam(self):
        from repro.chaos.scenarios import SCENARIOS

        covered = set()
        for scenario in SCENARIOS.values():
            covered.update(scenario.seams)
        assert covered == {"disk", "net", "process"}

    def test_build_schedule_is_seed_deterministic(self):
        from repro.chaos.scenarios import build_schedule

        for name in ("single_node", "serve_restart", "warm_cache",
                     "federated"):
            assert (
                build_schedule(name, 5).as_dict()
                == build_schedule(name, 5).as_dict()
            )

    def test_warm_cache_cell_end_to_end(self, tmp_path):
        from repro.chaos.runner import run_scenarios
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        report = tmp_path / "report.jsonl"
        summary = run_scenarios(
            names=["warm_cache"], seeds=(0,),
            report_path=str(report), workdir=str(tmp_path / "cells"),
            registry=registry,
        )
        assert summary["ok"] and summary["cells"] == 1
        assert summary["seams_fired"].get("disk", 0) > 0
        cells = [json.loads(ln) for ln in report.read_text().splitlines()]
        assert len(cells) == 1
        assert cells[0]["scenario"] == "warm_cache" and cells[0]["ok"]
        assert cells[0]["invariants"]
        assert all(inv["ok"] for inv in cells[0]["invariants"])
        from repro.obs.sinks import parse_prometheus_text, prometheus_text

        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples['chaos_scenarios_total{result="pass"}'] == 1
        assert samples['chaos_faults_injected_total{seam="disk"}'] >= 1

    def test_single_node_cell_audits_both_task_ledgers(self, tmp_path):
        from repro.chaos.scenarios import run_scenario

        _schedule, checks = run_scenario(
            "single_node", 0, str(tmp_path / "cell")
        )
        verdicts = {c.invariant: c.ok for c in checks}
        assert verdicts["task_ledger"] and verdicts["task_ledger:resume"]
        assert all(verdicts.values()), checks

    def test_unknown_scenario_is_an_error(self):
        from repro.chaos.runner import run_scenarios

        with pytest.raises(ValueError):
            run_scenarios(names=["nope"])

    def test_runner_captures_a_raising_scenario_as_a_failed_cell(
        self, tmp_path, monkeypatch
    ):
        import repro.chaos.runner as runner_mod

        def boom(name, seed, workdir):
            raise RuntimeError("scenario exploded")

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        summary = runner_mod.run_scenarios(
            names=["warm_cache"], seeds=(0,),
            workdir=str(tmp_path / "cells"),
        )
        assert not summary["ok"]
        assert summary["failed"] == [
            {"scenario": "warm_cache", "seed": 0}
        ]
        assert "scenario exploded" in summary["reports"][0]["error"]


class TestCLI:
    def test_chaos_run_exit_codes_and_report(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "r.jsonl"
        metrics = tmp_path / "m.prom"
        code = main([
            "chaos", "run", "--scenario", "warm_cache", "--seed", "4",
            "--report", str(report), "--metrics-out", str(metrics),
            "--workdir", str(tmp_path / "cells"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 cells passed" in out
        assert report.exists()
        assert "chaos_scenarios_total" in metrics.read_text()
        assert main(["chaos", "run", "--scenario", "bogus"]) == 2

    def test_chaos_list_prints_the_catalogue(self, capsys):
        from repro.cli import main

        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("single_node", "serve_restart", "federated",
                     "warm_cache"):
            assert name in out
