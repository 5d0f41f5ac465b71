"""Planning: serial MBET or the process pool, the budget, the fallbacks.

See :mod:`repro.plan.features` (graph signatures),
:mod:`repro.plan.model` (the MBET work model and the canonical
admission estimator) and :mod:`repro.plan.planner` (the explainable
:class:`Plan`).  ``docs/planning.md`` walks through the model and the
recalibration workflow.
"""

from repro.plan.features import (
    FEATURES_VERSION,
    PlanFeatures,
    cached_features,
    extract_features,
)
from repro.plan.model import (
    MODEL_VERSION,
    CostModel,
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
    recommend_slices,
    recommend_straggler_factor,
    root_cost_estimates,
)

__all__ = [
    "FEATURES_VERSION",
    "MODEL_VERSION",
    "PLANNER_ENGINES",
    "CostModel",
    "Plan",
    "PlanCandidate",
    "PlanError",
    "PlanFeatures",
    "build_plan",
    "cached_features",
    "cost_from_stats",
    "estimate_cost",
    "extract_features",
    "fit_work_model",
    "recommend_slices",
    "recommend_straggler_factor",
    "root_cost_estimates",
]
