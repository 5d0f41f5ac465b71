"""Run one benchmark workload and print its metrics.

Usage, from the root of the checkout::

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs the workload under the benchmark's span
wrappers and prints the per-layer metrics instead.  Every output is
verified against a reference answer.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment stamp, sample counts, tail percentiles,
failures with their reasons) is appended to ``.perfbench/results.jsonl``,
which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from cli_workloads import run_cli
from cluster_workload import run_cluster
from common import SRC, WORK_ROOT, env_stamp, load_spec
from context import Context
from layers import structural_zeros
from serve_workload import run_serve

WORKLOADS = {
    "cli_small": run_cli,
    "cli_enum": run_cli,
    "serve_mix": run_serve,
    "cluster_fed": run_cluster,
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the measured loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(WORK_ROOT / "results.jsonl"),
                   help="JSON-lines file the full run record is appended to")
    p.add_argument("--plant-drop", action="store_true",
                   help="drop one biclique from the first verified output "
                        "(the smoke run's proof that the verifier catches "
                        "a wrong answer)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still stops the servers it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = WORK_ROOT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, args.seconds,
                  bool(args.trace), work, args.plant_drop)
    started = time.time()
    try:
        env = env_stamp()
        out = WORKLOADS[args.workload](ctx)
        env["loadavg_end"] = os.getloadavg()
        if args.trace:
            zeros = structural_zeros(args.workload, out.metrics)
            spans = work / "spans"
            if spans.exists():
                kept = WORK_ROOT / "traces" / name
                shutil.rmtree(kept, ignore_errors=True)
                kept.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(str(spans), str(kept))
        else:
            zeros = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = load_spec()["per_layer" if args.trace else "end_to_end"]
    if {k: m["unit"] for k, m in out.metrics.items()} != {
            m["name"]: m["unit"] for m in wanted}:
        print("error: the metrics measured differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    failed = len(out.failures)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started": started, "wall_s": time.time() - started,
        "env": env, "planner": ctx.planner,
        "attempted": out.attempted, "failed": failed,
        "error_rate": failed / out.attempted,
        "failures": out.failures[:50],
        "metrics": out.metrics, "details": out.details, "notes": out.notes,
        "structural_zero": zeros,
    }
    results = os.path.abspath(args.results)
    os.makedirs(os.path.dirname(results), exist_ok=True)
    with open(results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={out.attempted} failed={failed} "
          f"error_rate={record['error_rate']:.4f}")
    for f in out.failures[:10]:
        print(f"# FAILED {f['op']}: {f['why']}")
    for key, m in out.metrics.items():
        why = f"  (zero: {zeros[key]})" if key in zeros else ""
        print(f"# {key:36s} {m['value']:.6g} {m['unit']}{why}")
    print(json.dumps({"correct": failed == 0, "attempted": out.attempted,
                      "failed": failed, "metrics": out.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
