"""Timing and memory measurement for enumeration runs.

Times reported by the experiments are per-run wall clock of
:meth:`repro.core.base.MBEAlgorithm.run` with ``collect=False`` (storing
every biclique would benchmark the allocator).  Memory is measured with
``tracemalloc`` so the number covers exactly the Python allocations of the
run, independent of interpreter RSS noise.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import ALGORITHMS, MBEResult
from repro.runtime.budget import RunBudget


@dataclass
class RunRecord:
    """Outcome of a timed benchmark run."""

    algorithm: str
    dataset: str
    elapsed: float
    count: int
    complete: bool
    stats: dict
    #: metric-registry snapshot of the run (instrumented runs only); the
    #: same shape as ``MetricRegistry.snapshot()`` so benchmark output can
    #: feed the observability sinks directly
    metrics: dict | None = None

    @property
    def status(self) -> str:
        """``'ok'`` or ``'timeout'`` — timed-out runs keep partial counts."""
        return "ok" if self.complete else "timeout"

    def as_dict(self) -> dict:
        """JSON-ready dump (used by ``tools/bench_snapshot.py``)."""
        out = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "elapsed": self.elapsed,
            "count": self.count,
            "complete": self.complete,
            "status": self.status,
            "stats": self.stats,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out


def run_timed(
    graph: BipartiteGraph,
    algorithm: str,
    dataset: str = "?",
    repeats: int = 1,
    time_limit: float | None = None,
    instrumentation=None,
    **options,
) -> RunRecord:
    """Run ``algorithm`` on ``graph`` ``repeats`` times; keep the best time.

    ``time_limit`` (seconds) turns slow baselines into explicit "timeout"
    rows instead of stalling the harness — mirroring how papers report
    baselines that exceed the evaluation budget.

    With ``instrumentation`` (an :class:`repro.obs.Instrumentation`),
    every repeat publishes into its registry and the record carries the
    resulting snapshot, so benchmark rows ship the same metrics the
    observability sinks export.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    factory = ALGORITHMS[algorithm]
    best: MBEResult | None = None
    for _ in range(repeats):
        algo = factory(**options)
        result = algo.run(
            graph, collect=False, budget=RunBudget(time_limit=time_limit),
            instrumentation=instrumentation,
        )
        if best is None or result.elapsed < best.elapsed:
            best = result
        if not result.complete:
            break  # no point repeating a timeout
    assert best is not None
    return RunRecord(
        algorithm=algorithm,
        dataset=dataset,
        elapsed=best.elapsed,
        count=best.count,
        complete=best.complete,
        stats=best.stats.as_dict(),
        metrics=(
            instrumentation.registry.snapshot()
            if instrumentation is not None
            else None
        ),
    )


def measure_peak_memory(
    graph: BipartiteGraph, algorithm: str, **options
) -> tuple[int, MBEResult]:
    """Return ``(peak_bytes, result)`` for one enumeration run.

    Only allocations made during the run are counted (tracemalloc snapshot
    is reset right before the run starts).
    """
    factory = ALGORITHMS[algorithm]
    algo = factory(**options)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = algo.run(graph, collect=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result
