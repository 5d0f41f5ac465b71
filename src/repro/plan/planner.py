"""The planner: serial MBET or the process pool, the budget, the fallbacks.

:func:`build_plan` turns a graph (or hypothetical
:class:`~repro.plan.model.PlanFeatures` sizes) into an explainable
:class:`Plan`.  The measurements support two decisions and
the planner makes exactly those:

* **serial ``mbet`` vs ``parallel``** — the process pool is eligible
  only on a multi-core host when the work model
  (:mod:`repro.plan.model`) predicts at least
  :data:`PARALLEL_WORTHWHILE_SECONDS` of serial work, and then leads;
* **the budget** — :data:`BUDGET_HEADROOM` × the chosen prediction,
  clamped to ``[BUDGET_FLOOR_SECONDS, BUDGET_CEIL_SECONDS]``.

Everything else keeps the order of :data:`SERIAL_CHAIN`: ``mbet``, then
``imbea``, a baseline that shares no enumeration code with MBET.
Ineligible candidates are kept with the reason they were rejected, and
live circuit-breaker state composes in as *demotion* — an engine whose
breaker is open ranks after every healthy candidate, so the service
tries it last rather than never.

The ranked chain (:meth:`Plan.engine_chain`) is the only source of
``repro serve``'s execution chain behind a job's requested engine;
``repro run`` uses the top candidate when no ``--algorithm`` is given;
the cluster coordinator sizes slices and straggler thresholds from its
per-root subtree estimates via :func:`recommend_slices` /
:func:`recommend_straggler_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.plan.model import MODEL_VERSION, CostModel, PlanFeatures

if TYPE_CHECKING:  # pragma: no cover
    from repro.bigraph.graph import BipartiteGraph

__all__ = [
    "Plan",
    "PlanCandidate",
    "PlanError",
    "build_plan",
    "enforces_thresholds",
    "recommend_slices",
    "recommend_straggler_factor",
]

#: The serial fallback chain, in order: the paper's engine, then a
#: baseline that shares no enumeration code with it.
SERIAL_CHAIN: tuple[str, ...] = ("mbet", "imbea")

#: Engines the planner considers by default.  ``bruteforce`` and
#: ``naive`` are reference baselines, deliberately absent: they exist to
#: check answers, not to serve traffic.
PLANNER_ENGINES: tuple[str, ...] = (*SERIAL_CHAIN, "parallel")

#: Graphs below this many edges pick ``natural`` ordering: enumeration is
#: microseconds either way and the degree sort would dominate.
TINY_EDGE_COUNT = 64

#: Predicted seconds of serial work above which the process-pool engine
#: is worth its dispatch overhead (given more than one core).
PARALLEL_WORTHWHILE_SECONDS = 5.0

#: Budget headroom: recommended time limit = ``HEADROOM ×`` prediction,
#: clamped to ``[BUDGET_FLOOR, BUDGET_CEIL]`` seconds.  Generous on
#: purpose — a budget exists to stop runaways, not to shave P99s.
BUDGET_HEADROOM = 20.0
BUDGET_FLOOR_SECONDS = 5.0
BUDGET_CEIL_SECONDS = 600.0


class PlanError(RuntimeError):
    """No eligible engine exists for the requested constraints."""


@dataclass
class PlanCandidate:
    """One scored ``(engine, ordering, parallelism)`` configuration."""

    engine: str
    ordering: str
    workers: int
    predicted_seconds: float | None
    eligible: bool
    demoted: bool = False
    reasons: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "ordering": self.ordering,
            "workers": self.workers,
            "predicted_seconds": self.predicted_seconds,
            "eligible": self.eligible,
            "demoted": self.demoted,
            "reasons": list(self.reasons),
        }


@dataclass
class Plan:
    """The planner's explainable output for one job."""

    features: PlanFeatures
    #: ranked: eligible candidates (healthy first, an eligible pool
    #: leading, else pool order), then ineligible
    candidates: list[PlanCandidate]
    budget_seconds: float
    graph_key: str | None = None
    model_version: str = MODEL_VERSION
    n_cores: int = 1
    #: the work model's serial MBET prediction, which scores any serial
    #: engine (in the pool or not)
    serial_seconds: float = 0.0

    @property
    def chosen(self) -> PlanCandidate:
        """The winning candidate (first eligible in rank order)."""
        for cand in self.candidates:
            if cand.eligible:
                return cand
        raise PlanError("no eligible engine for this job")

    def engine_chain(self) -> list[str]:
        """Eligible engines in execution order (the fallback chain)."""
        return [c.engine for c in self.candidates if c.eligible]

    def predicted_seconds_for(self, engine: str) -> float | None:
        """The scored prediction for ``engine``; a serial engine the plan
        did not score gets :attr:`serial_seconds`, ``parallel`` None."""
        for cand in self.candidates:
            if cand.engine == engine and cand.predicted_seconds is not None:
                return cand.predicted_seconds
        return None if engine == "parallel" else self.serial_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "graph_key": self.graph_key,
            "model_version": self.model_version,
            "n_cores": self.n_cores,
            "features": self.features.as_dict(),
            "chosen": self.chosen.as_dict(),
            "budget_seconds": self.budget_seconds,
            "serial_seconds": self.serial_seconds,
            "candidates": [c.as_dict() for c in self.candidates],
        }

    def explain(self) -> str:
        """Human-readable plan: the choice, the scores, and the whys."""
        f = self.features
        chosen = self.chosen
        lines = [
            (
                f"graph{' ' + self.graph_key[:12] if self.graph_key else ''}:"
                f" {f.n_u:,} x {f.n_v:,} vertices, {f.n_edges:,} edges"
            ),
            (
                f"chosen: engine={chosen.engine} ordering={chosen.ordering} "
                f"workers={chosen.workers} "
                f"budget={self.budget_seconds:.1f}s "
                f"predicted={chosen.predicted_seconds:.4f}s"
            ),
            "candidates:",
        ]
        rank = 0
        for cand in self.candidates:
            if cand.eligible:
                rank += 1
                status = "chosen" if cand is chosen else (
                    "demoted" if cand.demoted else "ok"
                )
                label = f"{rank:>4}"
                predicted = f"{cand.predicted_seconds:.4f}s"
            else:
                status = "ineligible"
                label = "   -"
                predicted = "-"
            why = f" ({'; '.join(cand.reasons)})" if cand.reasons else ""
            lines.append(
                f"{label}  {cand.engine:<10} {predicted:>10}  {status}{why}"
            )
        return "\n".join(lines)


def _candidate_engines(
    engines: Iterable[str] | None,
) -> list[str]:
    from repro.core.base import ALGORITHMS

    pool = tuple(engines) if engines is not None else PLANNER_ENGINES
    return [e for e in pool if e in ALGORITHMS]


def _pick_ordering(features: PlanFeatures) -> tuple[str, str]:
    """The ordering strategy and the reason it was picked."""
    if features.n_edges < TINY_EDGE_COUNT:
        return "natural", (
            f"graph has {features.n_edges} edges (< {TINY_EDGE_COUNT}); "
            f"ordering overhead would dominate"
        )
    return "degree", (
        "ascending-degree roots keep early subtrees small (the "
        "calibration data is measured under this ordering)"
    )


def enforces_thresholds(engine: str) -> bool:
    """True when registered ``engine`` takes ``min_left``/``min_right``.

    A job with size thresholds must never run on an engine that ignores
    them: the result set would silently change.
    """
    import inspect

    from repro.core.base import ALGORITHMS

    return "min_left" in inspect.signature(ALGORITHMS[engine]).parameters


def _rejection(
    engine: str, model: CostModel, serial: float, thresholds: str | None
) -> str | None:
    """Why ``engine`` cannot run this job, or None when it can."""
    if thresholds is not None and not enforces_thresholds(engine):
        return f"job sets size thresholds ({thresholds}) this engine " \
            f"cannot enforce"
    if engine != "parallel":
        return None
    if model.n_cores <= 1:
        return "single-core host: the process pool is pure overhead"
    if serial < PARALLEL_WORTHWHILE_SECONDS:
        return (
            f"serial estimate {serial:.2f}s is under the "
            f"{PARALLEL_WORTHWHILE_SECONDS:.0f}s bar where pool dispatch "
            f"pays off"
        )
    return None


def build_plan(
    graph: "BipartiteGraph | None" = None,
    *,
    features: PlanFeatures | None = None,
    graph_key: str | None = None,
    engines: Iterable[str] | None = None,
    min_left: int = 1,
    min_right: int = 1,
    breaker_states: Mapping[str, str] | None = None,
    model: CostModel | None = None,
    n_cores: int | None = None,
) -> Plan:
    """Plan one job: read the graph's sizes, decide serial vs pool, explain.

    ``features`` plans hypothetical sizes in place of a ``graph``; either
    way the plan costs O(1) graph work.  ``breaker_states``
    (engine → ``closed|half_open|open``) demotes open-breaker engines to
    the back of the eligible ranking.  ``engines`` replaces the
    candidate pool (default :data:`PLANNER_ENGINES`); its order is the
    fallback order.
    """
    if features is None:
        if graph is None:
            raise ValueError("build_plan needs a graph or its features")
        features = PlanFeatures.from_graph(graph)
    model = model if model is not None else CostModel(n_cores=n_cores)
    ordering, ordering_reason = _pick_ordering(features)
    serial = model.serial_seconds(features)
    thresholds = (
        f"{min_left}x{min_right}" if min_left > 1 or min_right > 1 else None
    )
    breaker_states = breaker_states or {}

    eligible: list[PlanCandidate] = []
    rejected: list[PlanCandidate] = []
    for engine in _candidate_engines(engines):
        workers = model.n_cores if engine == "parallel" else 1
        why_not = _rejection(engine, model, serial, thresholds)
        if why_not is not None:
            rejected.append(PlanCandidate(
                engine=engine, ordering=ordering, workers=workers,
                predicted_seconds=None, eligible=False, reasons=[why_not],
            ))
            continue
        reasons: list[str] = []
        if engine == "parallel":
            reasons.append(
                f"{model.n_cores} cores available and serial estimate "
                f"crosses the parallel bar"
            )
        demoted = breaker_states.get(engine) == "open"
        if demoted:
            reasons.append("circuit breaker open: demoted behind healthy "
                           "engines")
        eligible.append(PlanCandidate(
            engine=engine, ordering=ordering, workers=workers,
            predicted_seconds=model.predict_seconds(engine, features),
            eligible=True, demoted=demoted, reasons=reasons,
        ))

    if not eligible:
        raise PlanError(
            "no eligible engine: the candidate pool is empty for these "
            "constraints"
        )
    # healthy before demoted; an eligible pool leads; otherwise the pool
    # order is the fallback order (the sort is stable)
    eligible.sort(key=lambda c: (c.demoted, c.engine != "parallel"))
    chosen = eligible[0]
    if chosen.engine != "parallel":
        chosen.reasons.insert(0, (
            "first healthy engine of the chain (ranked by pool preference: "
            "one work model scores every serial engine alike)"
        ))
    chosen.reasons.insert(0, ordering_reason)
    budget = min(
        BUDGET_CEIL_SECONDS,
        max(BUDGET_FLOOR_SECONDS,
            BUDGET_HEADROOM * chosen.predicted_seconds),
    )
    return Plan(
        features=features,
        candidates=eligible + rejected,
        budget_seconds=budget,
        graph_key=graph_key,
        model_version=MODEL_VERSION,
        n_cores=model.n_cores,
        serial_seconds=serial,
    )


# -- cluster-facing estimates ----------------------------------------------

def recommend_slices(
    n_workers: int, estimates: list[int]
) -> int:
    """Slice count for a federated job, from the root-cost distribution.

    Baseline ``2 × workers`` (reassignment granularity without per-root
    chatter), plus extra slices when the root-cost distribution is
    heavy-tailed — a fat root trapped in a fat slice is exactly what
    straggler re-splits have to fix after the fact, so skewed graphs
    start finer.  Capped by the root count (a slice needs a root).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if not estimates:
        return max(1, 2 * n_workers)
    mean = sum(estimates) / len(estimates)
    skew = (max(estimates) / mean) if mean > 0 else 1.0
    extra = min(4 * n_workers, math.ceil(max(0.0, skew - 1.0) / 4))
    return max(1, min(len(estimates), 2 * n_workers + extra))


def recommend_straggler_factor(estimates: list[int]) -> float:
    """Straggler threshold (× median slice duration) from root skew.

    A slice that drew the heaviest root legitimately runs about
    ``skew ×`` the typical slice; flagging it as a straggler would
    re-split productive work.  The returned factor therefore grows with
    the observed root-cost skew, clamped to ``[2, 10]``.
    """
    if not estimates:
        return 4.0
    mean = sum(estimates) / len(estimates)
    if mean <= 0:
        return 4.0
    skew = max(estimates) / mean
    return max(2.0, min(10.0, 1.5 + skew / 2.0))
