"""Per-layer metrics of a traced run, assembled from span dumps."""

from __future__ import annotations

import json
import statistics

import tracer as tracing
from common import metric
from context import Context, Outcome, per_input_medians

#: per-layer metrics, printed by every traced run (name, unit).  Times and
#: counts are per operation (CLI invocation, serve job, federated job)
#: unless the name says otherwise.
PER_LAYER = [
    ("import.s", "s"), ("import.modules", "count"),
    ("bigraph.io.s", "s"), ("bigraph.ordering.s", "s"),
    ("plan.s", "s"), ("plan.parallel_picks", "count"),
    ("plan.log_error", "ln"),
    ("runtime.executor.s", "s"), ("runtime.executor.tasks", "count"),
    ("runtime.executor.retries", "count"),
    ("core.decompose.s", "s"), ("core.decompose.subproblems", "count"),
    ("core.decompose.pruned", "count"),
    ("core.prefixtree.s", "s"), ("core.prefixtree.inserts", "count"),
    ("core.prefixtree.queries", "count"),
    ("core.prefixtree.inserts_per_query", "ratio"),
    ("core.prefixtree.hit_ratio", "ratio"),
    ("core.enumerate.s", "s"), ("core.enumerate.nodes", "count"),
    ("core.enumerate.intersections", "count"),
    ("setops.kernels.s", "s"), ("setops.kernels.batches", "count"),
    ("core.io_results.s", "s"), ("core.io_results.bytes", "bytes"),
    ("artifacts.get.s", "s"), ("artifacts.put.s", "s"),
    ("artifacts.hit_ratio", "ratio"), ("artifacts.bytes_written", "bytes"),
    ("serve.http.s", "s"), ("serve.http.post_jobs.s", "s"),
    ("serve.http.job_status.s", "s"), ("serve.http.job_result.s", "s"),
    ("serve.queue_wait_s", "s"), ("serve.job_run_s", "s"),
    ("serve.polls_per_job", "count"), ("serve.result_bytes", "bytes"),
    ("serve.journal_bytes", "bytes"), ("serve.rejections", "count"),
    ("cluster.http.s", "s"), ("cluster.http_bytes", "bytes"),
    ("cluster.slices", "count"), ("cluster.merge_duplicates", "count"),
    ("cluster.reassignments", "count"), ("cluster.single_node_s", "s"),
    ("cluster.overhead_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
]

#: why a per-layer metric is zero by construction on a workload
STRUCTURAL_ZERO = {
    "cli_small": {
        "artifacts.": "repro run is invoked without --cache",
        "serve.": "no server in this workload",
        "cluster.": "no coordinator in this workload",
        "setops.kernels.": "the planner picks mbet/mbetm/imbea/parallel, "
                           "not mbet_vec",
    },
    "cli_enum": {
        "artifacts.": "repro run is invoked without --cache",
        "serve.": "no server in this workload",
        "cluster.": "no coordinator in this workload",
        "setops.kernels.": "the planner picks mbet/mbetm, not mbet_vec",
        "runtime.executor.": "the planner picks serial engines here",
    },
    "serve_mix": {
        "cluster.": "no coordinator in this workload",
        "runtime.executor.": "the serve default engine is mbet_vec",
    },
    "cluster_fed": {
        "serve.http.post_jobs.": "slices arrive through POST /slices",
        "plan.": "slice jobs run the parallel engine with no_fallback, "
                 "so the worker never plans",
        "setops.kernels.": "slices run the parallel engine (MBET workers)",
    },
}


class LayerSum:
    """Sums span dumps of one traced run into the per-layer metrics."""

    def __init__(self, n_ops: int):
        self.n_ops = max(n_ops, 1)
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.program: dict[str, float] = {}
        self.routes: dict[str, float] = {}
        self.imports: list[dict] = []
        self.plan_errors: list[float] = []
        self.extra: dict[str, float] = {}

    def add_dump(self, dump: dict) -> None:
        for layer, s in tracing.layer_self_times(dump["agg"]).items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + s
        for name, n in dump["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        for span in dump["spans"]:
            if "route" in span:
                r = span["route"]
                self.routes[r] = self.routes.get(r, 0.0) + span["self"]

    def per_op(self, value: float) -> float:
        return value / self.n_ops

    def metrics(self) -> dict[str, dict]:
        c = {**self.counts, **self.program}
        per = self.per_op
        m: dict[str, float] = {}
        if self.imports:
            m["import.s"] = statistics.mean(i["import_s"] for i in self.imports)
            m["import.modules"] = statistics.mean(
                i["import_modules"] for i in self.imports)
        for layer in ("bigraph.io", "bigraph.ordering", "plan",
                      "runtime.executor", "core.decompose",
                      "core.prefixtree", "core.enumerate", "setops.kernels",
                      "core.io_results", "artifacts.get", "artifacts.put",
                      "serve.http", "cluster.http"):
            m[f"{layer}.s"] = per(self.self_s.get(layer, 0.0))
        m["plan.parallel_picks"] = per(c.get("plan.parallel_picks", 0))
        if self.plan_errors:
            m["plan.log_error"] = statistics.median(self.plan_errors)
        for key in ("runtime.executor.tasks", "runtime.executor.retries",
                    "core.decompose.subproblems", "core.decompose.pruned",
                    "core.prefixtree.inserts", "core.prefixtree.queries",
                    "core.enumerate.nodes", "core.enumerate.intersections",
                    "setops.kernels.batches", "core.io_results.bytes",
                    "artifacts.bytes_written", "serve.journal_bytes"):
            m[key] = per(c.get(key, 0))
        queries = c.get("core.prefixtree.queries", 0)
        if queries:
            m["core.prefixtree.inserts_per_query"] = (
                c.get("core.prefixtree.inserts", 0) / queries)
            m["core.prefixtree.hit_ratio"] = (
                c.get("core.prefixtree.hits", 0) / queries)
        gets = c.get("artifacts.gets", 0)
        if gets:
            m["artifacts.hit_ratio"] = c.get("artifacts.hits", 0) / gets
        for route, name in (("post_jobs", "post_jobs"),
                            ("get_job_status", "job_status"),
                            ("get_job_result", "job_result")):
            m[f"serve.http.{name}.s"] = per(self.routes.get(route, 0.0))
        if c.get("serve.jobs_run"):
            m["serve.queue_wait_s"] = (c["serve.queue_wait_s"]
                                       / c["serve.jobs_run"])
        m.update(self.extra)
        unit = dict(PER_LAYER)
        return {name: metric(float(m.get(name, 0.0)), unit[name])
                for name, _ in PER_LAYER
                if not name.startswith("trace.")}


def matched_overhead(out: Outcome, plain: list[dict],
                     traced: list[dict]) -> None:
    """Tracing overhead: traced minus untraced median operation time, per
    input seen in both phases, averaged over those inputs."""
    plain_by = per_input_medians(plain)
    traced_by = per_input_medians(traced)
    both = [k for k in plain_by if k in traced_by]
    overhead = statistics.mean(traced_by[k] - plain_by[k] for k in both)
    base = statistics.mean(plain_by[k] for k in both)
    out.metrics["trace.overhead_s"] = metric(overhead, "s")
    out.metrics["trace.overhead_share"] = metric(overhead / base, "ratio")


def write_timeline(ctx: Context, dumps: list[dict],
                   remap: dict[str, str] | None = None) -> int:
    """Every recorded span of a traced run, all processes, one JSON line
    each in start order (``perf_counter`` is the system monotonic clock, so
    processes share a time base).  ``remap`` renames trace ids, which is
    how worker job ids become the federated job they served."""
    spans = []
    for dump in dumps:
        for span in dump["spans"]:
            if remap and span.get("trace") in remap:
                span = {**span, "trace": remap[span["trace"]]}
            spans.append(span)
    spans.sort(key=lambda sp: sp["start"])
    with open(ctx.path("spans", "timeline.jsonl"), "w",
              encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return len(spans)


def structural_zeros(workload: str, metrics: dict) -> dict[str, str]:
    """Reason for every per-layer metric that reads 0 on this run."""
    reasons = STRUCTURAL_ZERO.get(workload, {})
    out = {}
    for name, m in metrics.items():
        if m["value"] != 0:
            continue
        why = next((r for prefix, r in reasons.items()
                    if name.startswith(prefix)), None)
        out[name] = why or "no such event in this run"
    return out
