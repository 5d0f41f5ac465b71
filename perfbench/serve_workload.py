"""``serve_mix``: one ``repro serve`` process and two closed-loop clients
mixing cached repeats with fresh graphs."""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR, Server, digest_pairs, http_request, metric, mismatch,
    parse_prometheus, prom_sum, summarize,
)
from context import (
    OP_TIMEOUT_S, SETUPS, Context, Outcome, latency_metrics,
    per_input_medians,
)
from inputs import (
    load_zoo, planned_engine, planted_edges, random_edges, reference,
)
from layers import LayerSum, matched_overhead, write_timeline


#: the repeat graphs, cached during set-up
SERVE_REPEAT = ["mti", "so"]
SERVE_CLIENTS = 2
POLL_S = 0.01
#: serve_mix reads the server's peak RSS after this many jobs: the server
#: keeps every answer it served in RAM, so its peak grows with the number
#: of jobs and would otherwise track throughput instead of memory use
RSS_AT_JOBS = 100


def scheduled(k: int, repeat: list[dict]) -> dict | None:
    """The input of the ``k``-th job claimed: every third job is fresh
    (``None``), the others cycle through the repeat graphs.  A fixed
    schedule gives the first :data:`RSS_AT_JOBS` jobs the same mix on
    every seed, so the server's peak RSS does not follow a random count of
    large cached answers."""
    if k % 3 == 2:
        return None
    return repeat[(2 * (k // 3) + k % 3) % len(repeat)]


def serve_argv(ctx: Context, state: Path, traced_as: str | None,
               workers: int, extra: list[str] = ()) -> list[str]:
    args = ["serve", "--state-dir", str(state), "--port", "0",
            "--workers", str(workers), *extra]
    if traced_as is None:
        return [sys.executable, "-m", "repro", *args]
    spans = ctx.path("spans", f"{traced_as}.json")
    return [sys.executable, str(BENCH_DIR / "traced_main.py"), str(spans),
            traced_as, *args]


def start_server(ctx: Context, name: str, traced: bool, workers: int,
                 extra: list[str] = ()) -> tuple[Server, float]:
    state = ctx.work / "state" / name
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    server = Server(serve_argv(ctx, state, name if traced else None,
                               workers, extra),
                    state, ctx.path("log", f"{name}.log"))
    try:
        return server, server.wait_ready()
    except BaseException:
        server.stop()
        raise


class ServeClient:
    """HTTP client of one server, shared by the closed-loop clients."""

    def __init__(self, server: Server):
        self.host, self.port = server.host, server.port

    def call(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        return http_request(self.host, self.port, method, path, data,
                            timeout=OP_TIMEOUT_S)

    def job(self, spec: dict) -> dict:
        """Submit, poll to a terminal state, fetch the result.

        The clock stops when the result body has arrived; parsing and
        verifying it are the benchmark's own work, done later.
        """
        rec: dict = {"polls": 0}
        t0 = time.perf_counter()
        status, body = self.call("POST", "/jobs", spec)
        if status not in (200, 202):
            rec.update(seconds=time.perf_counter() - t0,
                       why=f"POST /jobs -> {status}: {body[:200]!r}",
                       rejected=status == 429)
            return rec
        job = json.loads(body)
        job_id = job["job_id"]
        deadline = t0 + OP_TIMEOUT_S
        while job["state"] not in ("done", "failed", "cancelled"):
            if time.perf_counter() > deadline:
                rec.update(seconds=time.perf_counter() - t0,
                           why=f"job {job_id} still {job['state']}")
                return rec
            time.sleep(POLL_S)
            status, body = self.call("GET", f"/jobs/{job_id}")
            rec["polls"] += 1
            if status != 200:
                rec.update(seconds=time.perf_counter() - t0,
                           why=f"GET /jobs/{job_id} -> {status}")
                return rec
            job = json.loads(body)
        status, result = self.call("GET", f"/jobs/{job_id}/result")
        rec["seconds"] = time.perf_counter() - t0
        rec["job"] = job
        rec["result_bytes"] = len(result)
        if status != 200:
            rec["why"] = f"GET /jobs/{job_id}/result -> {status}"
        elif job["state"] != "done":
            rec["why"] = f"job {job_id} ended {job['state']}: {job.get('error')}"
        elif not job.get("summary", {}).get("complete"):
            rec["why"] = f"job {job_id} done but complete=False"
        else:
            rec["body"] = result
        return rec


def bicliques_key(body: bytes) -> str:
    """Hash of the result body from its ``bicliques`` field on: equal for
    repeated answers of one graph, so each is parsed and verified once."""
    at = body.find(b'"bicliques"')
    return hashlib.sha1(body[at:] if at >= 0 else body).hexdigest()


class ServeVerifier:
    """Verifies result bodies once per distinct answer, after the loop."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.bodies: dict[str, bytes] = {}
        self.pending: list[tuple[dict, dict, str]] = []
        self._lock = threading.Lock()

    def keep(self, rec: dict, inp: dict) -> None:
        body = rec.pop("body", None)
        if body is None:
            return
        key = bicliques_key(body)
        with self._lock:
            self.bodies.setdefault(key, body)
            self.pending.append((rec, inp, key))

    def verify(self, out: Outcome) -> int:
        """Record every job kept; returns the verified biclique total."""
        def digest(key: str, drop_one: bool = False) -> dict:
            pairs = json.loads(self.bodies[key]).get("bicliques", [])
            return digest_pairs(((p[0], p[1]) for p in pairs),
                                drop_one=drop_one)

        digests = {key: digest(key) for key in self.bodies}
        total = 0
        for rec, inp, key in self.pending:
            got = (digest(key, drop_one=True) if self.ctx.take_plant()
                   else digests[key])
            why = mismatch(got, inp["ref"])
            rec["ok"] = out.record(f"serve job {inp['label']}", why)
            if rec["ok"]:
                total += got["count"]
        self.bodies.clear()
        return total


def serve_inputs(ctx: Context, n_fresh: int) -> tuple[list[dict], list[dict]]:
    repeat = []
    for name in SERVE_REPEAT:
        path, ref = load_zoo(name, ctx.path("inputs", f"{name}.txt"))
        repeat.append({"label": name, "spec": {"graph_path": str(path)},
                       "ref": ref, "repeat": True})
    fresh = []
    for i in range(n_fresh):
        kind = i % 3
        if kind == 0:
            edges = random_edges(ctx.rng, 40, 40, 0.2)
        elif kind == 1:
            edges = random_edges(ctx.rng, 60, 30, 0.3)
        else:
            edges = planted_edges(ctx.rng, 300, 150, 30, (3, 7), 300)
        fresh.append({"label": ("random40x40", "random60x30",
                                "planted300x150")[kind],
                      "spec": {"edges": [list(e) for e in edges]},
                      "ref": reference(edges), "repeat": False})
    return repeat, fresh


def fill_cache(ctx: Context, client: ServeClient, repeat: list[dict]) -> None:
    for inp in repeat:
        rec = client.job(inp["spec"])
        if rec.get("why"):
            raise RuntimeError(f"cache fill on {inp['label']}: {rec['why']}")


def serve_setup(ctx: Context, repeat: list[dict], traced: bool,
                tag: str) -> tuple[Server, float]:
    """Boot to ready plus cache fill, repeated; the last server is kept."""
    times = []
    server = None
    for i in range(SETUPS):
        if server is not None:
            server.stop()
        t0 = time.perf_counter()
        server, _ = start_server(ctx, f"{tag}{i}",
                                 traced and i == SETUPS - 1, SERVE_CLIENTS)
        try:
            fill_cache(ctx, ServeClient(server), repeat)
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - t0)
    return server, statistics.median(times)


def serve_loop(ctx: Context, out: Outcome, server: Server,
               repeat: list[dict], fresh: list[dict], seconds: float):
    """Two closed-loop clients; returns the job records, the loop's wall
    seconds, the verified biclique total and the server's peak RSS (kB)
    after :data:`RSS_AT_JOBS` jobs."""
    client = ServeClient(server)
    verifier = ServeVerifier(ctx)
    records: list[dict] = []
    cond = threading.Condition()
    pool = list(fresh)
    claimed = [0]
    exhausted = [0]
    rss_kb: list[int] = []
    errors: list[BaseException] = []

    def claim() -> dict:
        with cond:
            if claimed[0] == RSS_AT_JOBS and not rss_kb:
                # read the peak when the first RSS_AT_JOBS jobs have
                # ended and no later one has started
                cond.wait_for(lambda: len(records) == RSS_AT_JOBS or errors,
                              timeout=OP_TIMEOUT_S)
                if not rss_kb:
                    rss_kb.append(server.peak_rss_kb())
            k = claimed[0]
            claimed[0] += 1
            inp = scheduled(k, repeat)
            if inp is None:
                if pool:
                    return pool.pop()
                exhausted[0] += 1
                inp = repeat[k % len(repeat)]
            return inp

    def loop() -> None:
        try:
            while time.perf_counter() < deadline:
                inp = claim()
                rec = client.job(inp["spec"])
                rec["input"] = inp["label"]
                rec["repeat"] = inp["repeat"]
                if rec.get("why"):
                    out.record(f"serve job {inp['label']}", rec["why"])
                    rec["ok"] = False
                else:
                    verifier.keep(rec, inp)
                with cond:
                    records.append(rec)
                    cond.notify_all()
        except BaseException as exc:  # surfaced after join
            with cond:
                errors.append(exc)
                cond.notify_all()

    t0 = time.perf_counter()
    deadline = t0 + seconds
    threads = [threading.Thread(target=loop) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    bicliques = verifier.verify(out)
    if exhausted[0]:
        out.notes["fresh_pool_exhausted"] = exhausted[0]
    if not rss_kb:
        out.notes["peak_rss_after_jobs"] = len(records)
        rss_kb.append(server.peak_rss_kb())
    return records, wall, bicliques, rss_kb[0]


def fresh_pool_size(seconds: float) -> int:
    # a third of the jobs are fresh: enough for 36 jobs/s at 2 clients,
    # twice the fastest rate measured on a 2-vCPU VM, so a faster server
    # still gets the same mix; an exhausted pool turns fresh jobs into
    # repeats and is noted
    return int(12 * seconds) + 20


def run_serve(ctx: Context) -> Outcome:
    out = Outcome()
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    pool = fresh_pool_size(seconds)
    repeat, fresh = serve_inputs(ctx, 2 * pool if ctx.trace else pool)
    for inp in repeat:
        ctx.planner[inp["label"]] = planned_engine(
            Path(inp["spec"]["graph_path"]))
    server, setup_s = serve_setup(ctx, repeat, False, "plain")
    try:
        records, wall, bicliques, rss = serve_loop(
            ctx, out, server, repeat, fresh[:pool], seconds)
    finally:
        server.stop()
    s = summarize([r["seconds"] for r in records])
    engines: dict[str, int] = {}
    for r in records:
        if not r["repeat"] and "job" in r:
            e = r["job"].get("summary", {}).get("engine")
            engines[e] = engines.get(e, 0) + 1
    ctx.planner["fresh_jobs_engine_counts"] = engines
    if ctx.trace:
        return trace_serve(ctx, out, repeat, fresh[pool:], records)
    good = sum(1 for r in records if r.get("ok"))
    out.metrics["setup_s"] = metric(setup_s, "s")
    latency_metrics(out, s)
    out.metrics["jobs_per_s"] = metric(good / wall, "1/s")
    out.metrics["bicliques_per_s"] = metric(bicliques / wall, "1/s")
    out.metrics["peak_rss_mb"] = metric(rss / 1024, "MB")
    out.details["latency"] = s
    out.details["repeat_share"] = (
        sum(1 for r in records if r["repeat"]) / len(records))
    out.details["per_input_s"] = per_input_medians(records)
    return out


def serve_counters(client: ServeClient) -> dict[str, float]:
    status, body = client.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics -> {status}")
    return parse_prometheus(body.decode())


def trace_serve(ctx: Context, out: Outcome, repeat: list[dict],
                fresh: list[dict], plain: list[dict]) -> Outcome:
    seconds = ctx.seconds / 2
    server, _ = serve_setup(ctx, repeat, True, "traced")
    client = ServeClient(server)
    try:
        before = serve_counters(client)
        records = serve_loop(ctx, out, server, repeat, fresh, seconds)[0]
        after = serve_counters(client)
    finally:
        server.stop()
    dump = json.loads(
        (ctx.work / "spans" / f"traced{SETUPS - 1}.json").read_text())
    layers = LayerSum(len(records))
    layers.add_dump(dump)
    layers.imports.append(dump["meta"])
    for r in records:
        summary = r.get("job", {}).get("summary", {})
        if summary.get("predicted_seconds") and summary.get("elapsed"):
            layers.plan_errors.append(abs(math.log(
                summary["predicted_seconds"] / summary["elapsed"])))
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    runs = delta.get("serve_job_duration_seconds_count", 0)
    n = len(records)
    layers.extra.update({
        "serve.job_run_s": (delta["serve_job_duration_seconds_sum"] / runs
                            if runs else 0.0),
        "serve.polls_per_job": sum(r["polls"] for r in records) / n,
        "serve.result_bytes": sum(r.get("result_bytes", 0)
                                  for r in records) / n,
        "serve.rejections": (prom_sum(delta, "serve_rejections_total")
                             + sum(1 for r in records if r.get("rejected")))
                            / n,
    })
    out.metrics = layers.metrics()
    matched_overhead(out, plain, records)
    out.details["spans_recorded"] = write_timeline(ctx, [dump])
    return out
