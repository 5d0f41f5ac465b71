"""``cluster_fed``: the benchmark process coordinates federated ``so`` jobs
over two local ``repro serve`` workers."""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path

import tracer as tracing
from common import (
    Server, digest_pairs, metric, mismatch, parse_prometheus, prom_sum,
    summarize,
)
from context import SETUPS, Context, Outcome, latency_metrics
from inputs import load_zoo, planned_engine
from layers import LayerSum, matched_overhead, write_timeline
from serve_workload import ServeClient, serve_argv, serve_counters

#: cluster_fed reads the workers' peak RSS after this many federated jobs,
#: for the reason serve_mix reads its server's after a fixed job count
RSS_AT_FEDERATED = 8


def boot_workers(ctx: Context, tag: str, traced: bool) -> tuple[list, float]:
    """Boot two single-slot workers concurrently; returns them and the
    seconds until both answer ``/readyz``."""
    servers = []
    t0 = time.perf_counter()
    try:
        for i in range(2):
            state = ctx.work / "state" / f"{tag}w{i}"
            shutil.rmtree(state, ignore_errors=True)
            state.mkdir(parents=True)
            servers.append(Server(
                serve_argv(ctx, state, f"{tag}w{i}" if traced else None, 1,
                           ["--no-result-cache"]),
                state, ctx.path("log", f"{tag}w{i}.log")))
        for s in servers:
            s.wait_ready()
    except BaseException:
        for s in servers:
            s.stop()
        raise
    return servers, time.perf_counter() - t0


def cluster_setup(ctx: Context, traced: bool, tag: str):
    times = []
    servers: list = []
    for i in range(SETUPS):
        for s in servers:
            s.stop()
        servers, t = boot_workers(ctx, f"{tag}{i}",
                                  traced and i == SETUPS - 1)
        times.append(t)
    return servers, statistics.median(times)


def federated_op(ctx: Context, out: Outcome | None, urls: list[str],
                 graph: Path, ref: dict, k: int, tracer=None) -> dict:
    """One federated job from a fresh coordinator state directory.

    The graph is copied to a new path per job: slice idempotency keys
    include the path, so no worker can answer a slice from an earlier job,
    and the workers run with ``--no-result-cache``.
    """
    from repro.cluster import ClusterConfig, ClusterCoordinator

    path = ctx.path("cluster", f"g{k}.txt")
    shutil.copyfile(graph, path)
    state = ctx.work / "cluster" / f"coord{k}"
    state.mkdir()
    coordinator = ClusterCoordinator(ClusterConfig(
        state_dir=str(state), workers=list(urls)))
    if tracer is not None:
        tracer.set_trace(f"fed{k}")
    rec: dict = {"k": k, "input": "so"}
    try:
        t0 = time.perf_counter()
        try:
            result = coordinator.run({"graph_path": str(path)})
        except Exception as exc:  # noqa: BLE001 - a failed operation
            rec["seconds"] = time.perf_counter() - t0
            why = f"coordinator raised {exc!r}"
            result = None
        else:
            rec["seconds"] = time.perf_counter() - t0
        rec["counters"] = parse_prometheus(coordinator.metrics_text())
        # worker job ids, to map worker spans to this federated job; the
        # coordinator has no public view of its slices
        rec["worker_jobs"] = [s.job_id for s in coordinator._slices.values()
                              if s.job_id]
    finally:
        coordinator.close()
        if tracer is not None:
            tracer.set_trace(None)
    if result is not None:
        if not result.complete:
            why = (f"complete=False: {result.meta.get('stopped')} "
                   f"missing {result.meta.get('missing_ranges')}")
        else:
            got = digest_pairs(((b.left, b.right) for b in result.bicliques),
                               drop_one=out is not None and ctx.take_plant())
            why = mismatch(got, ref)
            rec["bicliques"] = got["count"]
    if out is None:
        if why is not None:
            raise RuntimeError(f"warm-up federated job: {why}")
    else:
        rec["ok"] = out.record(f"federated job #{k}", why)
    return rec


def cluster_loop(ctx: Context, out: Outcome, servers, graph, ref, seconds,
                 first_k: int, tracer=None) -> tuple[list[dict], int]:
    """Closed loop, one federated job at a time; returns the jobs and the
    workers' largest peak RSS (kB) after :data:`RSS_AT_FEDERATED` jobs."""
    urls = [s.url for s in servers]
    ops = []
    rss_kb = 0
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        ops.append(federated_op(ctx, out, urls, graph, ref,
                                first_k + len(ops), tracer))
        if len(ops) == RSS_AT_FEDERATED:
            rss_kb = max(s.peak_rss_kb() for s in servers)
    if not rss_kb:
        out.notes["peak_rss_after_jobs"] = len(ops)
        rss_kb = max(s.peak_rss_kb() for s in servers)
    return ops, rss_kb


def check_no_cache_answers(out: Outcome, servers) -> dict:
    """Fail the run if a worker answered a slice without enumerating."""
    seen = {}
    for s in servers:
        counters = serve_counters(ServeClient(s))
        dedup = counters.get('serve_slices_total{event="deduplicated"}', 0)
        hits = counters.get('serve_jobs_total{event="cache_hit"}', 0)
        seen[s.url] = {"deduplicated": dedup, "cache_hits": hits}
        if dedup or hits:
            out.record(f"worker {s.url}",
                       f"answered {dedup:g} slices from its idempotency "
                       f"store and {hits:g} from its result cache")
    return seen


def run_cluster(ctx: Context) -> Outcome:
    out = Outcome()
    graph, ref = load_zoo("so", ctx.path("inputs", "so.txt"))
    ctx.planner["so"] = planned_engine(graph)
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    servers, setup_s = cluster_setup(ctx, False, "plain")
    try:
        urls = [s.url for s in servers]
        warm = federated_op(ctx, None, urls, graph, ref, 0)
        out.notes["warmup_federated_s"] = warm["seconds"]
        ops, rss = cluster_loop(ctx, out, servers, graph, ref, seconds, 1)
        out.notes["worker_cache_check"] = check_no_cache_answers(out, servers)
    finally:
        for s in servers:
            s.stop()
    out.notes["cache_defeat"] = ("fresh graph_path per job (slice "
                                 "idempotency keys differ) and workers "
                                 "started with --no-result-cache")
    s = summarize([op["seconds"] for op in ops])
    if ctx.trace:
        return trace_cluster(ctx, out, graph, ref, ops, len(ops) + 1)
    busy = sum(op["seconds"] for op in ops)
    good = [op for op in ops if op["ok"]]
    out.metrics["setup_s"] = metric(setup_s, "s")
    latency_metrics(out, s)
    out.metrics["jobs_per_s"] = metric(len(good) / busy, "1/s")
    out.metrics["bicliques_per_s"] = metric(
        sum(op["bicliques"] for op in good) / busy, "1/s")
    out.metrics["peak_rss_mb"] = metric(rss / 1024, "MB")
    out.details["latency"] = s
    return out


def single_node_s(graph: Path) -> float:
    """Median of three plain in-process runs: parse plus ``mbet``."""
    from repro.bigraph.io import read_edge_list
    from repro.core.base import run_mbe

    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        run_mbe(read_edge_list(str(graph)), "mbet")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def trace_cluster(ctx: Context, out: Outcome, graph: Path, ref: dict,
                  plain_ops: list[dict], first_k: int) -> Outcome:
    baseline = single_node_s(graph)
    tracer = tracing.Tracer()
    tracing.install_cluster(tracer)
    servers, _ = cluster_setup(ctx, True, "traced")
    try:
        urls = [s.url for s in servers]
        federated_op(ctx, None, urls, graph, ref, first_k)
        ops = cluster_loop(ctx, out, servers, graph, ref, ctx.seconds / 2,
                           first_k + 1, tracer)[0]
        check_no_cache_answers(out, servers)
    finally:
        for s in servers:
            s.stop()
    layers = LayerSum(len(ops))
    dumps = [tracer.snapshot()]
    for i in range(2):
        dumps.append(json.loads(
            (ctx.work / "spans" / f"traced{SETUPS - 1}w{i}.json").read_text()))
        layers.imports.append(dumps[-1]["meta"])
    for dump in dumps:
        layers.add_dump(dump)
    counters: dict[str, float] = {}
    for op in ops:
        for k, v in op["counters"].items():
            counters[k] = counters.get(k, 0) + v
    n = len(ops)
    layers.extra.update({
        "cluster.slices": counters.get(
            'cluster_slices_total{event="completed"}', 0) / n,
        "cluster.merge_duplicates": prom_sum(
            counters, "cluster_merge_duplicates_total") / n,
        "cluster.reassignments": prom_sum(
            counters, "cluster_reassignments_total") / n,
        "cluster.http_bytes": dumps[0]["counts"].get(
            "cluster.http_bytes", 0) / n,
        "cluster.single_node_s": baseline,
        "cluster.overhead_s": summarize(
            [op["seconds"] for op in plain_ops])["p50"] - baseline,
    })
    out.metrics = layers.metrics()
    matched_overhead(out, plain_ops, ops)
    remap = {job: f"fed{op['k']}" for op in ops for job in op["worker_jobs"]}
    out.details["spans_recorded"] = write_timeline(ctx, dumps, remap)
    return out
