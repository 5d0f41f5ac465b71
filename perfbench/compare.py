"""Compare two sets of benchmark runs, metric by metric.

Usage, from the root of the checkout::

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds run records as ``run.py`` appends them (one JSON object a
line; ``--results`` chooses the file).  Only untraced runs count.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints the run
count, median and quartiles of each side and a verdict:

``better``     AFTER wins at least nine tenths of all (before, after) pairs
               and the medians differ by more than BEFORE's quartile spread;
``worse``      AFTER's median is worse than BEFORE's by more than the
               metric's bound;
``unresolved`` anything else.

Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from common import load_spec, quartiles


def load_runs(path: str) -> dict[str, list[dict]]:
    by: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            by.setdefault(rec["workload"], []).append(rec)
    return by


def verdict(before: list[float], after: list[float], lower: bool,
            bound: float) -> str:
    mb, ma = statistics.median(before), statistics.median(after)
    sign = 1 if lower else -1
    if sign * (ma - mb) > bound * abs(mb):
        return "worse"
    wins = sum(1 for b in before for a in after if sign * (b - a) > 0)
    q1, q3 = quartiles(sorted(before))
    if wins >= 0.9 * len(before) * len(after) and abs(ma - mb) > q3 - q1:
        return "better"
    return "unresolved"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    a, b = load_runs(argv[0]), load_runs(argv[1])
    header = (f"{'workload':12s} {'metric':18s} {'unit':5s} "
              f"{'n':>3s} {'before [q1, q3]':>30s} "
              f"{'n':>3s} {'after [q1, q3]':>30s} {'change':>8s}  verdict")
    print(header)
    worse = 0
    for workload in sorted(set(a) | set(b)):
        for m in spec["end_to_end"]:
            name = m["name"]
            before = [r["metrics"][name]["value"] for r in a.get(workload, [])
                      if name in r["metrics"]]
            after = [r["metrics"][name]["value"] for r in b.get(workload, [])
                     if name in r["metrics"]]
            if not before or not after:
                print(f"{workload:12s} {name:18s} {m['unit']:5s} "
                      f"missing runs")
                continue
            cells = []
            for vals in (before, after):
                q1, q3 = quartiles(sorted(vals))
                cells.append(f"{len(vals):3d} {statistics.median(vals):10.4g}"
                             f" [{q1:8.4g}, {q3:8.4g}]")
            mb = statistics.median(before)
            change = (statistics.median(after) - mb) / mb if mb else 0.0
            v = verdict(before, after, m["better"] == "lower", m["bound"])
            worse += v == "worse"
            print(f"{workload:12s} {name:18s} {m['unit']:5s} {cells[0]} "
                  f"{cells[1]} {change:+8.1%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
