"""Smoke run: every workload at minimum length, checked against the contract.

Usage, from the root of the checkout::

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` untraced and traced for one second and
asserts that the last line names every end-to-end (untraced) or per-layer
(traced) metric of ``BENCHMARK.json`` with its unit, that nothing failed,
and that each value is finite.  Then it plants a wrong answer (one biclique
dropped from the first verified output) on each kind of output, a CLI
result file, a serve result and a merged federated set, and asserts that the
verifier reports it as a failed operation.  Exits 1 on any violation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORK_ROOT, load_spec

WORKLOADS = ["cli_small", "cli_enum", "serve_mix", "cluster_fed"]
PLANTED = ["cli_small", "serve_mix", "cluster_fed"]


def run(workload: str, trace: int, plant: bool = False) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
            workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
            "--results", str(WORK_ROOT / "smoke.jsonl")]
    if plant:
        argv.append("--plant-drop")
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, wanted: list[dict], label: str) -> list[str]:
    problems = []
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(names - set(got))}, "
                        f"extra {sorted(set(got) - names)}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit "
                            f"{entry.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append(f"{label}: {m['name']} value {entry.get('value')!r}")
    if result["failed"] or not result["correct"]:
        problems.append(f"{label}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    return problems


def main() -> int:
    spec = load_spec()
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            try:
                problems += check_metrics(run(workload, trace), wanted, label)
            except AssertionError as exc:
                problems.append(str(exc))
            print(f"smoke: {label} done", flush=True)
    for workload in PLANTED:
        label = f"{workload} planted wrong answer"
        try:
            result = run(workload, 0, plant=True)
        except AssertionError as exc:
            problems.append(str(exc))
            continue
        if result["failed"] < 1 or result["correct"]:
            problems.append(f"{label}: not caught ({result['failed']} "
                            f"failed of {result['attempted']})")
        else:
            rate = result["failed"] / result["attempted"]
            print(f"smoke: {label} caught, error_rate={rate:.3f}", flush=True)
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
