"""Span recorder that wraps the program's public functions from outside.

:func:`install` replaces each traced name in the module (or class) where
the program looks it up, for example ``repro.core.decompose.vertex_order``
rather than only ``repro.bigraph.ordering.vertex_order``.  Every call of a
wrapped function is a span: name, start, end, parent and the trace id of
the operation it serves.  Spans live in memory and are written out once,
when the process ends.

Functions called per enumeration node (prefix-tree and kernel calls,
subproblem builds) are *hot*: they take part in the self-time accounting
of their parents but are aggregated per name instead of recorded one by
one, so a traced run keeps its memory bounded.

Self time is a span's duration minus the time its child spans cover.
Spans are attributed to layers by :data:`LAYER_OF`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: span name -> layer it is attributed to
LAYER_OF = {
    "read_edge_list": "bigraph.io",
    "resolve_graph": "bigraph.io",
    "vertex_order": "bigraph.ordering",
    "build_plan": "plan",
    "parallel_run": "runtime.executor",
    "executor_run": "runtime.executor",
    "build_subproblem": "core.decompose",
    "trie_insert": "core.prefixtree",
    "trie_remove": "core.prefixtree",
    "trie_has_superset": "core.prefixtree",
    "engine_run": "core.enumerate",
    "engine_task": "core.enumerate",
    "write_bicliques": "core.io_results",
    "biclique_writer_write": "core.io_results",
    "read_bicliques": "core.io_results",
    "artifacts_get": "artifacts.get",
    "artifacts_put": "artifacts.put",
    "http_get": "serve.http",
    "http_post": "serve.http",
    "run_job": "serve.job",
    "cluster_request": "cluster.http",
    "cluster_merge": "cluster.merge",
    "cluster_plan": "cluster.plan",
    "cluster_run": "cluster.coordinate",
}

KERNEL_FUNCTIONS = (
    "pack_masks", "unpack_masks", "mask_from_row", "popcount_rows",
    "group_rows", "filter_batch", "subset_reduce", "disjoint_reduce",
    "or_reduce", "and_rows", "or_rows", "andnot_rows",
)
for _fn in KERNEL_FUNCTIONS:
    LAYER_OF["kernel_" + _fn] = "setops.kernels"


class Tracer:
    """Per-thread span stacks, aggregated self times, recorded spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._ids = itertools.count(1)
        self.spans: list[dict] = []
        self.meta: dict = {}

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "agg": {}, "counts": {}, "trace": None}
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def set_trace(self, trace_id: str | None) -> None:
        self._state()["trace"] = trace_id

    def count(self, name: str, n: float = 1) -> None:
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + n

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool = False, on_exit=None,
             attrs=None):
        """Return ``fn`` timed as span ``name``.

        ``on_exit(args, kwargs, result)`` runs after the span closes (its
        cost is tracing overhead, not the layer's); ``attrs`` does the same
        and returns a dict stored on the recorded span.
        """
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            frame = [clock(), 0.0, None if hot else next(tracer._ids)]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                agg = st["agg"].get(name)
                if agg is None:
                    agg = st["agg"][name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if on_exit is not None:
                    on_exit(args, kwargs, result)
                if not hot:
                    parent = next((f[2] for f in reversed(stack)
                                   if f[2] is not None), None)
                    span = {"id": frame[2], "parent": parent, "name": name,
                            "start": frame[0], "end": end,
                            "self": dur - frame[1], "trace": st["trace"],
                            "pid": os.getpid()}
                    if attrs is not None:
                        span.update(attrs(args, kwargs, result))
                    with tracer._lock:
                        tracer.spans.append(span)

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        agg: dict[str, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
            spans = list(self.spans)
        for st in threads:
            for name, (calls, total, self_t) in list(st["agg"].items()):
                a = agg.setdefault(name, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += total
                a[2] += self_t
            for name, n in list(st["counts"].items()):
                counts[name] = counts.get(name, 0) + n
        return {"agg": agg, "counts": counts, "spans": spans,
                "meta": self.meta}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def layer_self_times(agg: dict) -> dict[str, float]:
    """Self seconds per layer from an aggregate ``{name: [calls, total,
    self]}`` map."""
    out: dict[str, float] = {}
    for name, (_calls, _total, self_t) in agg.items():
        layer = LAYER_OF.get(name, name)
        out[layer] = out.get(layer, 0.0) + self_t
    return out


def _patch_plan(tracer: Tracer, owner) -> None:
    """Wrap ``owner.build_plan``, counting plans and ``parallel`` picks and
    keeping the chosen engine's prediction on the span."""

    def on_plan(_a, _k, plan):
        if plan is not None:
            tracer.count("plan.plans")
            if plan.chosen.engine == "parallel":
                tracer.count("plan.parallel_picks")

    def plan_attrs(_a, _k, plan):
        if plan is None:
            return {}
        return {"engine": plan.chosen.engine,
                "predicted_s": plan.chosen.predicted_seconds}

    tracer.patch(owner, "build_plan", "build_plan", on_exit=on_plan,
                 attrs=plan_attrs)


def install(tracer: Tracer) -> None:
    """Wrap the program's public functions at the names they are looked up
    by.  Modules not imported yet are imported here, which is why the
    bootstrap times ``import repro.cli`` before calling this."""
    import repro.artifacts.store as store_mod
    import repro.bigraph.io as io_mod
    import repro.cli as cli_mod
    import repro.core.base as base_mod
    import repro.core.decompose as decompose_mod
    import repro.core.io_results as io_results_mod
    import repro.core.parallel as parallel_mod
    import repro.core.prefixtree as prefixtree_mod
    import repro.plan as plan_mod
    import repro.runtime.executor as executor_mod
    import repro.setops.kernels as kernels_mod

    count = tracer.count

    # bigraph: parsing, where each caller looks it up
    for owner in (io_mod, cli_mod):
        tracer.patch(owner, "read_edge_list", "read_edge_list")
    # ordering: imported by name into the decomposition and the parallel
    # engine
    for owner in (decompose_mod, parallel_mod):
        tracer.patch(owner, "vertex_order", "vertex_order")

    # the CLI imports build_plan from the package at call time
    _patch_plan(tracer, plan_mod)

    def on_subproblem(_a, _k, sub):
        count("core.decompose.subproblems" if sub is not None
              else "core.decompose.pruned")

    for owner in (decompose_mod, parallel_mod):
        tracer.patch(owner, "build_subproblem", "build_subproblem", hot=True,
                     on_exit=on_subproblem)

    def on_query(_a, _k, hit):
        count("core.prefixtree.queries")
        if hit:
            count("core.prefixtree.hits")

    tree = prefixtree_mod.PrefixTree
    tracer.patch(tree, "insert", "trie_insert", hot=True,
                 on_exit=lambda _a, _k, _r: count("core.prefixtree.inserts"))
    tracer.patch(tree, "remove", "trie_remove", hot=True)
    tracer.patch(tree, "has_superset", "trie_has_superset", hot=True,
                 on_exit=on_query)

    def on_run(_a, _k, result):
        if result is None:
            return
        count("core.enumerate.runs")
        count("core.enumerate.nodes", result.stats.nodes)
        count("core.enumerate.intersections", result.stats.intersections)
        count("setops.kernels.batches", result.stats.kernel_batches)

    def run_attrs(args, _k, result):
        if result is None:
            return {}
        return {"engine": args[0].name, "elapsed": result.elapsed}

    # engines inherit run() from the base class; ParallelMBE overrides it
    # and is the executor span (pool start included, children untraced)
    tracer.patch(base_mod.MBEAlgorithm, "run", "engine_run", on_exit=on_run,
                 attrs=run_attrs)

    def on_parallel(_a, _k, result):
        if result is None:
            return
        count("runtime.executor.tasks", result.meta.get("tasks", 0))
        count("core.enumerate.nodes", result.stats.nodes)
        count("core.enumerate.intersections", result.stats.intersections)

    tracer.patch(parallel_mod.ParallelMBE, "run", "parallel_run",
                 on_exit=on_parallel, attrs=run_attrs)

    # in-process tasks are engine work; pool children inherit the wrapper
    # but their spans stay in the child and are lost
    tracer.patch(parallel_mod, "_run_task", "engine_task")

    def on_executor(_a, _k, report):
        if report is not None:
            count("runtime.executor.retries", report.retries)

    tracer.patch(executor_mod.ResilientExecutor, "run", "executor_run",
                 on_exit=on_executor)

    for fn in KERNEL_FUNCTIONS:
        tracer.patch(kernels_mod, fn, "kernel_" + fn, hot=True)

    def on_write(args, kwargs, _r):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        try:
            count("core.io_results.bytes", os.path.getsize(path))
        except (OSError, TypeError):
            pass

    tracer.patch(io_results_mod, "write_bicliques", "write_bicliques",
                 on_exit=on_write)
    tracer.patch(io_results_mod.BicliqueWriter, "write",
                 "biclique_writer_write", hot=True)

    def on_get(_a, _k, payload):
        count("artifacts.gets")
        if payload is not None:
            count("artifacts.hits")

    def on_put(_a, _k, path):
        try:
            count("artifacts.bytes_written", os.path.getsize(path))
        except (OSError, TypeError):
            pass

    tracer.patch(store_mod.ArtifactStore, "get", "artifacts_get",
                 on_exit=on_get)
    tracer.patch(store_mod.ArtifactStore, "put", "artifacts_put",
                 on_exit=on_put)


def install_serve(tracer: Tracer) -> None:
    """Serve-side spans: HTTP routes, job execution, graph resolution."""
    import re

    import repro.serve.journal as journal_mod
    import repro.serve.server as server_mod

    job_path = re.compile(r"^/jobs/([A-Za-z0-9-]+)(/result|/cancel)?$")

    def route_attrs(args, _k, _r):
        handler = args[0]
        path = handler.path
        m = job_path.match(path)
        if m:
            route = "job_result" if m.group(2) == "/result" else (
                "job_cancel" if m.group(2) else "job_status")
        else:
            route = path.strip("/").replace("/", "_") or "root"
        out = {"route": f"{handler.command.lower()}_{route}"}
        if m:
            out["trace"] = m.group(1)
        return out

    handler = server_mod._Handler
    tracer.patch(handler, "do_GET", "http_get", attrs=route_attrs)
    tracer.patch(handler, "do_POST", "http_post", attrs=route_attrs)

    service = server_mod.EnumerationService
    run_job = service._run_job

    def traced_run_job(self, job):
        tracer.set_trace(job.job_id)
        tracer.count("serve.queue_wait_s", time.time() - job.submitted_at)
        tracer.count("serve.jobs_run")
        try:
            return run_job(self, job)
        finally:
            tracer.set_trace(None)

    service._run_job = tracer.wrap("run_job", traced_run_job)
    tracer.patch(service, "_resolve_graph", "resolve_graph")
    # the server imports these by name
    _patch_plan(tracer, server_mod)
    tracer.patch(server_mod, "read_bicliques", "read_bicliques")

    append = journal_mod.JobJournal._append

    def counted_append(self, record):
        tracer.count("serve.journal_bytes",
                     len(json.dumps(record, separators=(",", ":"))) + 1)
        return append(self, record)

    journal_mod.JobJournal._append = counted_append


def install_cluster(tracer: Tracer) -> None:
    """Coordinator-side spans: slice HTTP with its bytes, plan, merge."""
    import repro.cluster.client as client_mod
    import repro.cluster.coordinator as coord_mod

    def on_request(args, kwargs, result):
        body = kwargs.get("body", args[3] if len(args) > 3 else None)
        sent = len(json.dumps(body)) if body is not None else 0
        got = len(json.dumps(result[1])) if result is not None else 0
        tracer.count("cluster.http_bytes", sent + got)

    tracer.patch(client_mod.WorkerClient, "request", "cluster_request",
                 on_exit=on_request)
    coord = coord_mod.ClusterCoordinator
    tracer.patch(coord, "_accept_result", "cluster_merge")
    tracer.patch(coord, "_plan", "cluster_plan")
    tracer.patch(coord, "run", "cluster_run")
