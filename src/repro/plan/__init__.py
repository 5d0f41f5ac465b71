"""Planning: serial MBET or the process pool, the budget, the fallbacks.

See :mod:`repro.plan.model` (the graph sizes a plan reads, the MBET
work model and the canonical admission estimator) and
:mod:`repro.plan.planner` (the explainable :class:`Plan`).
``docs/planning.md`` walks through the model and the recalibration
workflow.
"""

from repro.plan.model import (
    MODEL_VERSION,
    CostModel,
    PlanFeatures,
    cost_from_stats,
    estimate_cost,
    fit_work_model,
)
from repro.plan.planner import (
    PLANNER_ENGINES,
    Plan,
    PlanCandidate,
    PlanError,
    build_plan,
    enforces_thresholds,
    recommend_slices,
    recommend_straggler_factor,
)

__all__ = [
    "MODEL_VERSION",
    "PLANNER_ENGINES",
    "CostModel",
    "Plan",
    "PlanCandidate",
    "PlanError",
    "PlanFeatures",
    "build_plan",
    "cost_from_stats",
    "enforces_thresholds",
    "estimate_cost",
    "fit_work_model",
    "recommend_slices",
    "recommend_straggler_factor",
]
