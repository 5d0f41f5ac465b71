"""repro.serve — the embedded enumeration service (``repro-mbe serve``).

Stdlib-only serving layer over the enumeration engines: a bounded job
queue with cost-aware admission control, per-engine circuit breakers
over a planner-ranked fallback chain, a memory watchdog that degrades
collection instead of dying, and a crash-safe JSONL job journal that
lets a restarted server resume in-flight work.  See ``docs/serving.md``.
"""

from repro.serve.breaker import BreakerOpen, BreakerRegistry, CircuitBreaker
from repro.serve.jobs import Job, JobSpec, JobValidationError
from repro.serve.journal import JobJournal, JournalError, load_journal
from repro.serve.queue import AdmissionError, BoundedJobQueue, estimate_cost
from repro.serve.server import (
    EnumerationService,
    ServiceConfig,
    make_http_server,
    run_server,
)
from repro.serve.watchdog import DegradableCollector, MemoryWatchdog

__all__ = [
    "AdmissionError",
    "BoundedJobQueue",
    "BreakerOpen",
    "BreakerRegistry",
    "CircuitBreaker",
    "DegradableCollector",
    "EnumerationService",
    "Job",
    "JobJournal",
    "JobSpec",
    "JobValidationError",
    "JournalError",
    "MemoryWatchdog",
    "ServiceConfig",
    "estimate_cost",
    "load_journal",
    "make_http_server",
    "run_server",
]
