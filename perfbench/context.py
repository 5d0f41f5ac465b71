"""What every workload shares: its run context and its outcome."""

from __future__ import annotations

import random
import statistics
from pathlib import Path

from common import metric

#: set-up is repeated and its median reported
SETUPS = 3
#: an operation still running after this long is a failure
OP_TIMEOUT_S = 120.0


class Outcome:
    """Operations attempted, failures with their reasons, metrics, and the
    details and notes that go to the result record only."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self.metrics: dict[str, dict] = {}
        self.details: dict = {}
        self.notes: dict = {}

    def record(self, op: str, why: str | None) -> bool:
        self.attempted += 1
        if why is not None:
            self.failures.append({"op": op, "why": why})
        return why is None


class Context:
    """Arguments and scratch space of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, work: Path, plant_drop: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.plant_drop = plant_drop
        self.rng = random.Random(f"{workload}:{seed}")
        self.planner: dict[str, dict] = {}

    def take_plant(self) -> bool:
        """True exactly once when a wrong answer is to be planted."""
        planted, self.plant_drop = self.plant_drop, False
        return planted

    def path(self, *parts: str) -> Path:
        p = self.work.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return p


def latency_metrics(out: Outcome, s: dict) -> None:
    """``run_s``, ``job_s`` and ``federated_s`` all carry the workload's
    operation latency: every run prints every end-to-end metric."""
    for name in ("run_s", "job_s", "federated_s"):
        out.metrics[f"{name}.p50"] = metric(s["p50"], "s")
        out.metrics[f"{name}.tail"] = metric(s["tail"], "s")


def per_input_medians(ops: list[dict]) -> dict[str, float]:
    by: dict[str, list[float]] = {}
    for op in ops:
        by.setdefault(op["input"], []).append(op["seconds"])
    return {k: statistics.median(v) for k, v in sorted(by.items())}
