"""Tests for the observability subsystem (``repro.obs``).

Covers the overhead contract (an un-instrumented run performs **zero**
instrumentation clock reads, proven with a counting fake clock), the
metric primitives, tracer spans/events, progress heartbeats, both sinks'
round trips, the ``run_mbe`` integration, and per-worker aggregation
through :class:`~repro.core.parallel.ParallelMBE`.
"""

from __future__ import annotations

import io
import json
import math

import pytest

from repro import run_mbe
from repro.core.mbetm import MBETM
from repro.core.parallel import ParallelMBE
from repro.obs import (
    Instrumentation,
    JsonlSink,
    MetricRegistry,
    NULL_INSTRUMENTATION,
    ProgressReporter,
    Tracer,
    parse_prometheus_text,
    prometheus_text,
    stat_metric_name,
    write_prometheus,
    write_trace_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, _STAT_HELP


class CountingClock:
    """Fake monotonic clock that counts how often it is read."""

    def __init__(self, start: float = 0.0, step: float = 0.0):
        self.now = start
        self.step = step
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        self.now += self.step
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def patch_obs_clock(monkeypatch, clock) -> None:
    """Replace the default clock in every obs module that binds it."""
    monkeypatch.setattr("repro.obs.trace.MONOTONIC", clock)
    monkeypatch.setattr("repro.obs.progress.MONOTONIC", clock)
    monkeypatch.setattr("repro.obs.metrics.MONOTONIC", clock)


class TestOverheadContract:
    def test_uninstrumented_run_reads_no_obs_clock(self, monkeypatch, g0):
        clock = CountingClock()
        patch_obs_clock(monkeypatch, clock)
        result = run_mbe(g0, algorithm="mbet")
        assert result.count == 6
        assert clock.calls == 0

    def test_uninstrumented_parallel_reads_no_obs_clock(
        self, monkeypatch, g0
    ):
        clock = CountingClock()
        patch_obs_clock(monkeypatch, clock)
        result = ParallelMBE(workers=1).run(g0)
        assert result.count == 6
        assert clock.calls == 0

    def test_uninstrumented_iter_bicliques_reads_no_obs_clock(
        self, monkeypatch, g0
    ):
        clock = CountingClock()
        patch_obs_clock(monkeypatch, clock)
        assert len(list(MBETM().iter_bicliques(g0))) == 6
        assert clock.calls == 0

    def test_instrumented_run_does_read_the_clock(self, monkeypatch, g0):
        clock = CountingClock(step=1e-6)
        patch_obs_clock(monkeypatch, clock)
        instr = Instrumentation()  # picks up the patched default
        result = run_mbe(g0, algorithm="mbet", instrumentation=instr)
        assert result.count == 6
        assert clock.calls > 0

    def test_null_instrumentation_is_inert(self):
        # all hooks are no-ops and the phase context is reusable
        with NULL_INSTRUMENTATION.phase("enumerate"):
            pass
        NULL_INSTRUMENTATION.event("x", a=1)
        NULL_INSTRUMENTATION.pulse(None)
        NULL_INSTRUMENTATION.on_report(1, None)
        NULL_INSTRUMENTATION.publish_stats(None)
        assert NULL_INSTRUMENTATION.enabled is False


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("x_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_max(self):
        g = Gauge("x")
        g.set(3)
        g.max(2)
        assert g.value == 3
        g.max(7)
        assert g.value == 7

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("x", bounds=(1.0, 5.0, 10.0))
        h.observe(0.5)
        h.observe(4.0)
        h.observe(100.0)
        assert h.bucket_counts == [1, 2, 2]
        assert h.count == 3
        assert h.sum == pytest.approx(104.5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=())
        with pytest.raises(ValueError):
            Histogram("x", bounds=(5.0, 1.0))

    def test_registry_get_or_create(self):
        reg = MetricRegistry()
        a = reg.counter("hits_total", "help text")
        b = reg.counter("hits_total")
        assert a is b
        assert len(reg) == 1
        # different labels -> different metric
        c = reg.counter("hits_total", labels={"algo": "mbet"})
        assert c is not a
        assert len(reg) == 2

    def test_registry_type_mismatch(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_snapshot_and_merge(self):
        a = MetricRegistry()
        a.counter("n_total").inc(3)
        a.gauge("peak").set(10)
        a.histogram("t", bounds=(1.0, 2.0)).observe(0.5)
        b = MetricRegistry()
        b.counter("n_total").inc(4)
        b.gauge("peak").set(7)
        b.histogram("t", bounds=(1.0, 2.0)).observe(1.5)
        b.merge_snapshot(a.snapshot())
        assert b.counter("n_total").value == 7
        assert b.gauge("peak").value == 10  # gauges take the max
        hist = b.histogram("t", bounds=(1.0, 2.0))
        assert hist.count == 2
        assert hist.bucket_counts == [1, 2]

    def test_merge_preserves_labels(self):
        a = MetricRegistry()
        a.counter("n_total", labels={"algo": "mbet"}).inc(2)
        b = MetricRegistry()
        b.merge_snapshot(a.snapshot())
        assert b.counter("n_total", labels={"algo": "mbet"}).value == 2

    def test_stat_metric_name(self):
        assert stat_metric_name("nodes") == "mbe_nodes_total"
        assert stat_metric_name("trie_peak_nodes") == "mbe_trie_peak_nodes"


class TestTracer:
    def test_nested_spans_record_depth(self):
        clock = CountingClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].duration > 0

    def test_span_recorded_on_exception(self):
        tracer = Tracer(clock=CountingClock(step=1.0))
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tracer.spans] == ["boom"]

    def test_event_ring_is_bounded(self):
        tracer = Tracer(clock=CountingClock(step=1.0), max_events=3)
        for i in range(5):
            tracer.event("tick", i=i)
        assert len(tracer.events) == 3
        assert tracer.dropped == 2
        assert [e["i"] for e in tracer.events] == [2, 3, 4]

    def test_phase_durations_fold_repeats(self):
        clock = CountingClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("load"):
            pass
        with tracer.span("load"):
            pass
        durations = tracer.phase_durations()
        assert set(durations) == {"load"}
        assert durations["load"] == pytest.approx(2.0)

    def test_records_sorted_by_timestamp(self):
        tracer = Tracer(clock=CountingClock(step=1.0))
        with tracer.span("a"):
            tracer.event("mid")
        records = list(tracer.records())
        assert [r["ts"] for r in records] == sorted(r["ts"] for r in records)
        assert {r["kind"] for r in records} == {"span", "event"}


class _FakeStats:
    def __init__(self, nodes: int = 0, subtrees: int = 0):
        self.nodes = nodes
        self.subtrees = subtrees


class TestProgress:
    def test_rejects_bad_options(self):
        with pytest.raises(ValueError):
            ProgressReporter(mode="xml")
        with pytest.raises(ValueError):
            ProgressReporter(interval=-1)
        with pytest.raises(ValueError):
            ProgressReporter(stride=0)

    def test_jsonl_heartbeats(self):
        clock = CountingClock(step=0.0)
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, mode="jsonl", interval=1.0, stride=1, clock=clock
        )
        reporter.start(total_subtrees=10)
        stats = _FakeStats(nodes=50, subtrees=2)
        clock.advance(2.0)
        reporter.maybe_emit(5, stats)
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "progress"
        assert rec["bicliques"] == 5
        assert rec["nodes"] == 50
        assert rec["total_subtrees"] == 10
        assert rec["eta"] == pytest.approx(2.0 * 8 / 2, abs=0.01)

    def test_interval_throttling(self):
        clock = CountingClock(step=0.0)
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, mode="jsonl", interval=10.0, stride=1, clock=clock
        )
        reporter.start()
        stats = _FakeStats()
        for _ in range(100):
            clock.advance(0.01)  # only 1s total -> under the interval
            reporter.maybe_emit(1, stats)
        assert reporter.heartbeats == 0
        clock.advance(10.0)
        reporter.maybe_emit(2, stats)
        assert reporter.heartbeats == 1

    def test_stride_gates_clock_reads(self):
        clock = CountingClock(step=0.0)
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, mode="jsonl", interval=0.0, stride=32, clock=clock
        )
        reporter.start()
        reads_after_start = clock.calls
        stats = _FakeStats()
        for _ in range(31):
            reporter.maybe_emit(1, stats)
        assert clock.calls == reads_after_start  # gated by the stride mask
        reporter.maybe_emit(1, stats)  # 32nd call crosses the stride
        assert clock.calls > reads_after_start

    def test_pulse_reuses_last_count(self):
        clock = CountingClock(step=0.0)
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, mode="jsonl", interval=0.0, stride=1, clock=clock
        )
        reporter.start()
        clock.advance(1.0)
        reporter.maybe_emit(7, _FakeStats())
        clock.advance(1.0)
        reporter.maybe_emit(None, _FakeStats())  # pulse path
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        assert [r["bicliques"] for r in records] == [7, 7]

    def test_finish_emits_final_and_tty_newline(self):
        clock = CountingClock(step=0.0)
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, mode="tty", interval=0.0, stride=1, clock=clock
        )
        reporter.start()
        clock.advance(1.0)
        reporter.finish(6, _FakeStats(nodes=10, subtrees=3))
        out = stream.getvalue()
        assert out.startswith("\r")
        assert out.endswith("\n")
        assert "6 bicliques" in out

    def test_final_jsonl_record_flagged(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, mode="jsonl", clock=CountingClock(step=0.5)
        )
        reporter.start()
        reporter.finish(3, _FakeStats())
        rec = json.loads(stream.getvalue().splitlines()[-1])
        assert rec["final"] is True
        assert rec["bicliques"] == 3


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"a": 1})
            sink.write_all([{"b": 2}, {"c": 3}])
            assert sink.written == 3
        lines = path.read_text().splitlines()
        assert [json.loads(x) for x in lines] == [
            {"a": 1}, {"b": 2}, {"c": 3}
        ]

    def test_trace_jsonl_carries_meta(self, tmp_path):
        tracer = Tracer(clock=CountingClock(step=1.0), max_events=2)
        with tracer.span("enumerate"):
            for i in range(4):
                tracer.event("tick", i=i)
        path = tmp_path / "trace.jsonl"
        n = write_trace_jsonl(tracer, path)
        records = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(records) == n
        meta = records[-1]
        assert meta["kind"] == "trace_meta"
        assert meta["spans"] == 1
        assert meta["events"] == 2
        assert meta["dropped_events"] == 2

    def test_prometheus_round_trip(self, tmp_path):
        reg = MetricRegistry()
        reg.counter("mbe_nodes_total", "nodes expanded").inc(42)
        reg.gauge("mbe_run_elapsed_seconds",
                  labels={"algorithm": "mbet"}).set(1.5)
        reg.histogram("mbe_run_seconds", bounds=(1.0, 10.0)).observe(2.0)
        text = prometheus_text(reg)
        assert "# HELP mbe_nodes_total nodes expanded" in text
        assert "# TYPE mbe_nodes_total counter" in text
        samples = parse_prometheus_text(text)
        assert samples["mbe_nodes_total"] == 42
        assert samples['mbe_run_elapsed_seconds{algorithm="mbet"}'] == 1.5
        assert samples['mbe_run_seconds_bucket{le="1"}'] == 0
        assert samples['mbe_run_seconds_bucket{le="10"}'] == 1
        assert samples['mbe_run_seconds_bucket{le="+Inf"}'] == 1
        assert samples["mbe_run_seconds_sum"] == 2.0
        assert samples["mbe_run_seconds_count"] == 1
        # file writer produces the same text
        path = tmp_path / "metrics.prom"
        write_prometheus(reg, path)
        assert path.read_text() == text

    def test_parse_handles_inf(self):
        samples = parse_prometheus_text('x_bucket{le="+Inf"} +Inf\n')
        assert samples['x_bucket{le="+Inf"}'] == math.inf


class TestRunIntegration:
    @pytest.mark.parametrize("algorithm", ["mbet", "imbea"])
    def test_registry_matches_result_stats(self, g0, algorithm):
        instr = Instrumentation()
        result = run_mbe(g0, algorithm=algorithm, instrumentation=instr)
        assert result.count == 6
        view = instr.stats_view()
        for name, value in result.stats.as_dict().items():
            assert getattr(view, name) == value, name
        assert view.as_dict() == {
            name: result.stats.as_dict().get(name, 0) for name in _STAT_HELP
        } | result.stats.as_dict()

    def test_run_lifecycle_metrics(self, g0):
        instr = Instrumentation()
        run_mbe(g0, algorithm="mbet", instrumentation=instr)
        samples = parse_prometheus_text(prometheus_text(instr.registry))
        assert samples["mbe_runs_total"] == 1
        assert samples['mbe_run_elapsed_seconds{algorithm="mbet"}'] >= 0
        assert samples["mbe_run_seconds_count"] == 1
        assert "mbe_runs_incomplete_total" not in samples

    def test_enumerate_span_and_run_events(self, g0):
        instr = Instrumentation()
        run_mbe(g0, algorithm="mbet", instrumentation=instr)
        assert "enumerate" in instr.tracer.phase_durations()
        names = [e["name"] for e in instr.tracer.events]
        assert names[0] == "run_start"
        assert names[-1] == "run_end"

    def test_progressive_driver_reports_like_run(self, g0):
        # the progressive driver goes through the same run session as
        # run(): lifecycle events, the enumerate span, the mbe_run*
        # families and a started and finished progress reporter
        stream = io.StringIO()
        instr = Instrumentation(progress=ProgressReporter(
            stream=stream, mode="jsonl", interval=0.0, stride=1,
        ))
        assert len(list(MBETM().iter_bicliques(g0, instrumentation=instr))) == 6
        names = [e["name"] for e in instr.tracer.events]
        assert names[0] == "run_start"
        assert names[-1] == "run_end"
        assert "enumerate" in instr.tracer.phase_durations()
        samples = parse_prometheus_text(prometheus_text(instr.registry))
        assert samples["mbe_runs_total"] == 1
        assert samples['mbe_run_elapsed_seconds{algorithm="mbetm"}'] >= 0
        assert samples["mbe_run_seconds_count"] == 1
        assert samples[stat_metric_name("maximal")] == 6
        final = json.loads(stream.getvalue().splitlines()[-1])
        assert final["final"] is True
        assert final["bicliques"] == 6

    def test_incomplete_run_counted(self, g0):
        instr = Instrumentation()
        result = run_mbe(
            g0, algorithm="mbet", max_bicliques=2, instrumentation=instr
        )
        assert result.complete is False
        assert instr.counter("mbe_runs_incomplete_total").value == 1

    def test_progress_wired_through_run(self, g0):
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, mode="jsonl", interval=0.0, stride=1
        )
        instr = Instrumentation(progress=reporter)
        run_mbe(g0, algorithm="mbet", instrumentation=instr)
        records = [json.loads(x) for x in stream.getvalue().splitlines()]
        assert records  # at least the final heartbeat
        assert records[-1]["final"] is True
        assert records[-1]["bicliques"] == 6

    def test_instrumentation_reset_after_run(self, g0):
        from repro.core.base import ALGORITHMS

        algo = ALGORITHMS["mbet"]()
        algo.run(g0, instrumentation=Instrumentation())
        assert algo._instr is NULL_INSTRUMENTATION


class TestParallelAggregation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_snapshots_aggregate(self, g0, workers):
        instr = Instrumentation()
        result = ParallelMBE(workers=workers).run(
            g0, instrumentation=instr
        )
        assert result.count == 6
        # per-worker EnumerationStats fold into one registry
        view = instr.stats_view()
        assert view.maximal == result.stats.maximal
        assert view.nodes == result.stats.nodes
        samples = parse_prometheus_text(prometheus_text(instr.registry))
        assert samples["executor_tasks_completed_total"] > 0
        assert samples["parallel_workers"] == workers
        assert samples["parallel_tasks"] == result.meta["tasks"]
        assert samples["mbe_runs_total"] == 1

    def test_task_events_traced(self, g0):
        instr = Instrumentation()
        ParallelMBE(workers=1).run(g0, instrumentation=instr)
        names = {e["name"] for e in instr.tracer.events}
        assert "task_done" in names
        durations = instr.tracer.phase_durations()
        assert "decompose" in durations
        assert "enumerate" in durations
