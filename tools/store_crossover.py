"""Place MBET's adaptive node-checking threshold from measured subproblems.

Usage: python tools/store_crossover.py [--out DIR] [--date YYYY-MM-DD]
           [--datasets am,so,pa,gh] [--repeats 3] [--no-powerlaw]

Runs MBET on each input three ways: the prefix tree forced
(``use_trie=True``), the linear scan forced (``use_trie=False``) and the
adaptive default (``use_trie=None``), ``repeats`` times each, interleaved.
It writes ``BENCH_<date>.json`` with two tables per input:

* ``runs``: whole-run seconds per store, median and min–max, plus
  ``adaptive_vs_best`` = adaptive median / min(trie median, list median).
* ``subproblems``: every first-level subproblem timed under both forced
  stores (median over the repeats), bucketed by its size
  ``|initial Q| + |candidates|``, and for each candidate threshold ``T``
  the summed time of the rule "trie iff size >= T" relative to picking
  the faster store per subproblem.  ``repro.core.mbet.TRIE_MIN_SIZE`` is
  the threshold this table places.

Beside the zoo keys, the input ``powerlaw`` is
``powerlaw_bipartite(3000, 3000, 30000, seed=1)``: hub-heavy, with
subproblems well right of the crossover.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import datasets  # noqa: E402
from repro.bigraph.generators import powerlaw_bipartite  # noqa: E402
from repro.core.mbet import MBET, TRIE_MIN_SIZE  # noqa: E402

DEFAULT_DATASETS = ("am", "so", "pa", "gh")
STORES = {"trie": True, "list": False, "adaptive": None}
THRESHOLDS = (0, 250, 500, 800, 1000, 1500, 2000, 4000, None)
BUCKETS = (0, 250, 500, 1000, 2000, 4000)


class _TimedMBET(MBET):
    """MBET that records ``(size, seconds)`` for every subproblem it runs."""

    def __init__(self, **options):
        super().__init__(**options)
        self.samples: list[tuple[int, float]] = []

    def _run_subproblem(self, sub, report, stats, _part=0, _n_parts=1):
        t0 = time.perf_counter()
        super()._run_subproblem(sub, report, stats, _part, _n_parts)
        self.samples.append((sub.store_size, time.perf_counter() - t0))


def _spread(values: list[float]) -> dict:
    return {
        "median": round(statistics.median(values), 4),
        "min": round(min(values), 4),
        "max": round(max(values), 4),
    }


def _label(lo: int, hi: int | None) -> str:
    return f"{lo}+" if hi is None else f"{lo}-{hi - 1}"


def measure(graph, repeats: int) -> dict:
    """Whole-run and per-subproblem timings of one graph."""
    seconds: dict[str, list[float]] = {store: [] for store in STORES}
    per_sub: dict[str, list[list[float]]] = {"trie": [], "list": []}
    sizes: list[int] = []
    counts = set()
    for _ in range(repeats):
        for store, use_trie in STORES.items():
            algo = _TimedMBET(use_trie=use_trie)
            result = algo.run(graph, collect=False)
            seconds[store].append(result.elapsed)
            counts.add(result.count)
            if store in per_sub:
                sizes = [size for size, _ in algo.samples]
                per_sub[store].append([t for _, t in algo.samples])
            print(f"    {store:>8s}: {result.elapsed:.3f}s", file=sys.stderr)
    if len(counts) != 1:
        raise RuntimeError(f"stores disagree on the biclique count: {counts}")
    trie = [statistics.median(ts) for ts in zip(*per_sub["trie"])]
    lst = [statistics.median(ts) for ts in zip(*per_sub["list"])]
    best = sum(min(a, b) for a, b in zip(trie, lst)) or 1e-12

    buckets = []
    for lo, hi in zip(BUCKETS, BUCKETS[1:] + (None,)):
        idx = [i for i, s in enumerate(sizes)
               if s >= lo and (hi is None or s < hi)]
        buckets.append({
            "size": _label(lo, hi),
            "subproblems": len(idx),
            "trie_s": round(sum(trie[i] for i in idx), 4),
            "list_s": round(sum(lst[i] for i in idx), 4),
        })
    rules = []
    for threshold in THRESHOLDS:
        total = sum(
            t if threshold is not None and s >= threshold else l
            for s, t, l in zip(sizes, trie, lst)
        )
        rules.append({
            "threshold": threshold,
            "seconds": round(total, 4),
            "vs_best": round(total / best, 3),
        })
    runs = {store: _spread(ts) for store, ts in seconds.items()}
    runs["adaptive_vs_best"] = round(
        runs["adaptive"]["median"]
        / min(runs["trie"]["median"], runs["list"]["median"]), 3
    )
    return {
        "count": counts.pop(),
        "n_edges": graph.n_edges,
        "runs": runs,
        "subproblems": {
            "count": len(sizes),
            "max_size": max(sizes, default=0),
            "per_subproblem_best_s": round(best, 4),
            "by_size": buckets,
            "by_threshold": rules,
        },
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".",
                        help="directory to write BENCH_<date>.json into")
    parser.add_argument("--date", default=None,
                        help="snapshot date (YYYY-MM-DD); defaults to today")
    parser.add_argument("--datasets", default=",".join(DEFAULT_DATASETS),
                        help="comma-separated zoo dataset keys")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per store and input (default 3)")
    parser.add_argument("--no-powerlaw", action="store_true",
                        help="skip the power-law input (the slowest)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    inputs = [(name, lambda name=name: datasets.load(name))
              for name in args.datasets.split(",") if name]
    if not args.no_powerlaw:
        inputs.append(("powerlaw", lambda: powerlaw_bipartite(
            3000, 3000, 30000, seed=1)))
    graphs = {}
    for name, load in inputs:
        print(f"  {name}", file=sys.stderr)
        graphs[name] = measure(load(), args.repeats)
    date = args.date or datetime.date.today().isoformat()
    doc = {
        "date": date,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "layer": "node checking: the traversed-set store of each "
                 "first-level subproblem",
        "trie_min_size": TRIE_MIN_SIZE,
        "repeats": args.repeats,
        "graphs": graphs,
    }
    path = pathlib.Path(args.out) / f"BENCH_{date}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
