"""The planner's cost model: one estimator for every layer.

Two jobs live here:

* **Admission pre-flight.**  :func:`estimate_cost` is the canonical
  ``|E| · max(1, D₂)`` work estimate — the shape of the MBET bound with
  the graph quantities a pre-flight *can* afford to compute.  Serve and
  the artifact store's ``cost`` producer both delegate here, so there is
  exactly one definition of "how expensive does this graph look".

* **Runtime prediction.**  :class:`CostModel` predicts MBET's wall-clock
  seconds from the edge count alone, with a two-constant power law::

      t  =  WORK_SCALE · |E| ** WORK_EXPONENT

  fit by :func:`fit_work_model` — least squares in log space over the
  ``mbet`` cells of the crossover matrix a ``BENCH_*.json`` snapshot
  carries (``tools/bench_snapshot.py --crossover-*``).  There is no
  density term on purpose: zoo densities span only 0.001–0.04, so a
  fitted density weight is free to explode off the zoo (an earlier
  six-feature fit predicted 1.5e6 s for a 12-edge graph).  The MBET
  engines run within noise of each other, so the same prediction scores
  every serial engine; the planner orders them by its fallback chain,
  not by score.

The ``parallel`` engine is predicted as dispatch overhead plus the
serial time divided by an effective speedup of ``0.7 × cores`` — on a
single-core host it therefore never wins, which matches measurement
(R-F9).

The model scores a :class:`PlanFeatures` row: the three sizes the plan
reads or prints, all O(1) to take from a graph.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.bigraph.graph import BipartiteGraph
    from repro.bigraph.stats import GraphStats

__all__ = [
    "CostModel",
    "MODEL_VERSION",
    "PlanFeatures",
    "WORK_EXPONENT",
    "WORK_SCALE",
    "cost_from_stats",
    "estimate_cost",
    "fit_work_model",
]

MODEL_VERSION = "v2"

#: ``t = WORK_SCALE · |E| ** WORK_EXPONENT``, fit by :func:`fit_work_model`
#: to the ``mbet`` cells of the committed ``BENCH_2026-08-08a.json``
#: crossover matrix (13 zoo graphs, 3k–44k edges).  On those rows the
#: median error is 2.3× and the worst under-prediction 5.6× (dbt), which
#: the planner's 20× budget headroom absorbs.
WORK_SCALE = 8.891e-06
WORK_EXPONENT = 1.2179

#: Fixed per-task overhead of the process-pool engine (pool spin-up,
#: graph shipping, result marshalling), in seconds.
PARALLEL_OVERHEAD_SECONDS = 0.35

#: Fraction of ideal linear speedup the parallel engine realises.
PARALLEL_EFFICIENCY = 0.7


# -- admission pre-flight ---------------------------------------------------

def cost_from_stats(stats: "GraphStats") -> int:
    """``|E| · max(1, D₂)`` from a precomputed stats row."""
    d2 = max(stats.max_two_hop_u, stats.max_two_hop_v)
    return stats.n_edges * max(1, d2)


def estimate_cost(graph: "BipartiteGraph") -> int:
    """Pre-flight work estimate ``|E| · max(D₂(U), D₂(V))``.

    ``D₂`` bounds the candidate-set size of any enumeration subtree, so
    this is (up to the output term the estimate cannot know) the shape
    of the MBET bound with the quantities admission can afford.
    """
    from repro.bigraph.stats import compute_stats

    return cost_from_stats(compute_stats(graph))


# -- runtime prediction -----------------------------------------------------

@dataclass(frozen=True)
class PlanFeatures:
    """The graph sizes a plan reads or prints (JSON-round-trippable)."""

    n_u: int
    n_v: int
    n_edges: int

    @classmethod
    def from_graph(cls, graph: "BipartiteGraph") -> "PlanFeatures":
        return cls(n_u=graph.n_u, n_v=graph.n_v, n_edges=graph.n_edges)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlanFeatures":
        """Build from a record, ignoring unknown keys (older snapshots
        carry a wider signature)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


class CostModel:
    """Scores ``(engine, features)`` pairs in predicted wall-clock seconds."""

    def __init__(self, n_cores: int | None = None):
        if n_cores is None:
            import os

            n_cores = os.cpu_count() or 1
        self.n_cores = max(1, int(n_cores))

    def serial_seconds(self, features: PlanFeatures) -> float:
        """Predicted seconds of one serial MBET run on ``features``."""
        return WORK_SCALE * max(1, features.n_edges) ** WORK_EXPONENT

    def predict_seconds(self, engine: str, features: PlanFeatures) -> float:
        """Predicted wall-clock seconds for ``engine`` on ``features``."""
        serial = self.serial_seconds(features)
        if engine != "parallel":
            return serial
        speedup = max(1.0, PARALLEL_EFFICIENCY * self.n_cores)
        return PARALLEL_OVERHEAD_SECONDS + serial / speedup


def fit_work_model(
    records: Iterable[Mapping[str, Any]],
) -> tuple[float, float]:
    """Fit ``(scale, exponent)`` to the ``mbet`` cells of crossover records.

    Each record needs ``engine``, ``elapsed``, ``complete`` and a
    ``features`` dict (the shape ``tools/bench_snapshot.py`` writes in
    its ``crossover`` section).  Incomplete (budget-truncated) rows are
    skipped — a truncated elapsed is a lower bound, not a measurement.
    Raises ``ValueError`` when fewer than two distinct edge counts
    remain, since a line needs two points.
    """
    points = [
        (math.log(max(1, int(rec["features"]["n_edges"]))),
         math.log(float(rec["elapsed"])))
        for rec in records
        if rec.get("engine") == "mbet" and rec.get("complete", False)
        and float(rec["elapsed"]) > 0.0
    ]
    if len({x for x, _ in points}) < 2:
        raise ValueError(
            "need complete 'mbet' cells on at least two edge counts"
        )
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    exponent = sum((x - mean_x) * (y - mean_y) for x, y in points) / sxx
    scale = math.exp(mean_y - exponent * mean_x)
    return float(f"{scale:.4g}"), round(exponent, 4)
