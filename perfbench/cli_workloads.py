"""``cli_small`` and ``cli_enum``: closed loops of fresh ``repro run``
processes, one client."""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR, digest_pairs, metric, mismatch, parse_prometheus,
    read_output_file, run_timed, summarize, tail_text,
)
from context import (
    OP_TIMEOUT_S, SETUPS, Context, Outcome, latency_metrics,
    per_input_medians,
)
from inputs import edge_text, load_zoo, planned_engine, random_edges, reference
from layers import LayerSum, matched_overhead, write_timeline

#: cli_small inputs: zoo graphs, and (n_u, n_v, p) of seeded random graphs
CLI_SMALL_ZOO = ["mti", "wa", "tm"]
CLI_SMALL_RANDOM = [(40, 40, 0.2), (60, 30, 0.3), (30, 30, 0.5)]
#: cli_enum inputs: the biclique-rich zoo graphs
CLI_ENUM_ZOO = ["am", "so", "pa", "gh"]
#: whole rounds an untraced run makes at least.  cli_small's slowest two
#: inputs (tm, then wa) are well apart from the rest, so its tail (the
#: eleventh-largest sample) stays within the wa samples only while the
#: round count r satisfies r < 11 <= 2r; a time-only loop on a slow host
#: makes fewer rounds and moves the tail to another input.
MIN_ROUNDS = {"cli_small": 6, "cli_enum": 1}


def cli_inputs(ctx: Context) -> list[dict]:
    if ctx.workload == "cli_small":
        names, shapes = CLI_SMALL_ZOO, CLI_SMALL_RANDOM
    else:
        names, shapes = CLI_ENUM_ZOO, []
    inputs = []
    for name in names:
        path, ref = load_zoo(name, ctx.path("inputs", f"{name}.txt"))
        inputs.append({"label": name, "path": path, "ref": ref})
    for n_u, n_v, p in shapes:
        label = f"random{n_u}x{n_v}p{p}"
        edges = random_edges(ctx.rng, n_u, n_v, p)
        path = ctx.path("inputs", f"{label}.txt")
        path.write_text(edge_text(edges))
        inputs.append({"label": label, "path": path, "ref": reference(edges)})
    for inp in inputs:
        ctx.planner[inp["label"]] = planned_engine(inp["path"])
    return inputs


def cli_argv(ctx: Context, path: Path, out_path: Path, traced_as: str | None):
    args = ["run", "--input", str(path), "-o", str(out_path)]
    if traced_as is None:
        return [sys.executable, "-m", "repro", *args]
    spans = ctx.path("spans", f"{traced_as}.json")
    prom = ctx.path("spans", f"{traced_as}.prom")
    return [sys.executable, str(BENCH_DIR / "traced_main.py"), str(spans),
            traced_as, *args, "--metrics-out", str(prom)]


def cli_op(ctx: Context, out: Outcome | None, inp: dict, k: int,
           traced_as: str | None = None) -> dict:
    """One ``repro run`` invocation, verified against the reference.

    ``out=None`` marks a set-up invocation: timed for ``setup_s`` but not
    an operation; a set-up failure aborts the run.
    """
    out_path = ctx.path("out", f"{k}.txt")
    if out_path.exists():
        out_path.unlink()
    stdout, stderr = ctx.path("log", "op.out"), ctx.path("log", "op.err")
    res = run_timed(cli_argv(ctx, inp["path"], out_path, traced_as),
                    stdout, stderr, OP_TIMEOUT_S)
    res["input"] = inp["label"]
    why = None
    if res["timed_out"]:
        why = f"timed out after {OP_TIMEOUT_S}s"
    elif res["rc"] != 0:
        why = f"exit {res['rc']}: {tail_text(stderr)}"
    elif not out_path.exists():
        why = "no output file"
    else:
        got = digest_pairs(read_output_file(out_path),
                           drop_one=out is not None and ctx.take_plant())
        why = mismatch(got, inp["ref"])
        res["bicliques"] = got["count"]
    if out is None:
        if why is not None:
            raise RuntimeError(f"set-up invocation on {inp['label']}: {why}")
    else:
        res["ok"] = out.record(f"repro run {inp['label']} (#{k})", why)
    if out_path.exists():
        out_path.unlink()
    return res


def cli_setup(ctx: Context) -> float:
    """The untimed warm-up invocations (on ``mti``); returns their median
    wall time."""
    path, ref = load_zoo("mti", ctx.path("inputs", "warmup-mti.txt"))
    warm = {"label": "mti", "path": path, "ref": ref}
    return statistics.median(
        cli_op(ctx, None, warm, -1)["seconds"] for _ in range(SETUPS))


def cli_rounds(ctx: Context, out: Outcome, inputs: list[dict],
               seconds: float, min_rounds: int = 1, traced: bool = False,
               first_k: int = 0) -> list[dict]:
    """Closed loop, one client: whole rounds over every input in a seeded
    order, started while time is left or fewer than ``min_rounds`` ran."""
    ops = []
    t0 = time.perf_counter()
    while (len(ops) < min_rounds * len(inputs)
           or time.perf_counter() - t0 < seconds):
        order = list(inputs)
        ctx.rng.shuffle(order)
        for inp in order:
            k = first_k + len(ops)
            ops.append(cli_op(ctx, out, inp, k,
                              traced_as=f"op{k}" if traced else None))
    return ops


def run_cli(ctx: Context) -> Outcome:
    out = Outcome()
    inputs = cli_inputs(ctx)
    setup_s = cli_setup(ctx)
    if ctx.trace:
        return trace_cli(ctx, out, inputs)
    ops = cli_rounds(ctx, out, inputs, ctx.seconds,
                     MIN_ROUNDS[ctx.workload])
    s = summarize([op["seconds"] for op in ops])
    busy = sum(op["seconds"] for op in ops)
    good = [op for op in ops if op["ok"]]
    out.metrics["setup_s"] = metric(setup_s, "s")
    latency_metrics(out, s)
    out.metrics["jobs_per_s"] = metric(len(good) / busy, "1/s")
    out.metrics["bicliques_per_s"] = metric(
        sum(op["bicliques"] for op in good) / busy, "1/s")
    out.metrics["peak_rss_mb"] = metric(
        max(op["rss_kb"] for op in ops) / 1024, "MB")
    out.details["latency"] = s
    out.details["per_input_s"] = per_input_medians(ops)
    return out


def trace_cli(ctx: Context, out: Outcome, inputs: list[dict]) -> Outcome:
    """One untraced round, then traced rounds for the rest of the time."""
    plain = cli_rounds(ctx, out, inputs, 0)
    traced = cli_rounds(ctx, out, inputs, ctx.seconds, traced=True,
                        first_k=len(plain))
    dumps = []
    for op_k, op in enumerate(traced, start=len(plain)):
        spans = ctx.work / "spans" / f"op{op_k}.json"
        prom = ctx.work / "spans" / f"op{op_k}.prom"
        if not spans.exists():
            continue
        dump = json.loads(spans.read_text())
        dump["prom"] = (parse_prometheus(prom.read_text())
                        if prom.exists() else {})
        dumps.append(dump)
    layers = LayerSum(len(traced))
    for dump in dumps:
        layers.add_dump(dump)
        layers.imports.append(dump["meta"])
        prom = dump["prom"]
        # program counters from --metrics-out replace the wrapper's copies
        for key, name in (("core.enumerate.nodes", "mbe_nodes_total"),
                          ("core.enumerate.intersections",
                           "mbe_intersections_total"),
                          ("setops.kernels.batches",
                           "mbe_kernel_batches_total")):
            if name in prom:
                layers.program[key] = layers.program.get(key, 0) + prom[name]
        layers.plan_errors.extend(cli_plan_errors(dump))
    out.metrics = layers.metrics()
    matched_overhead(out, plain, traced)
    out.details["spans_recorded"] = write_timeline(ctx, dumps)
    return out


def cli_plan_errors(dump: dict) -> list[float]:
    """|ln(predicted / actual)| for the planned engine of one invocation."""
    plans = [s for s in dump["spans"] if s["name"] == "build_plan"
             and s.get("predicted_s")]
    runs = [s for s in dump["spans"]
            if s["name"] in ("engine_run", "parallel_run")
            and s.get("elapsed")]
    if not plans or not runs:
        return []
    top = min(runs, key=lambda s: s["start"])
    return [abs(math.log(plans[0]["predicted_s"] / top["elapsed"]))]
