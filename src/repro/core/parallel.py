"""Shared-memory parallel MBE over first-level subproblems.

The enumeration tree decomposes into independent first-level subtrees
(:mod:`repro.core.decompose`), which is the parallelization unit of every
multicore MBE system in this literature.  Two refinements make the
distribution *load-aware*:

* **Task splitting.**  A subtree whose estimated size
  ``min(|L₀|, |N₂(v)|) * |N₂(v)|`` exceeds ``bound_size`` (and whose height
  bound exceeds ``bound_height``) is split into ``k`` *root-slice* tasks:
  slice ``(v, part, k)`` branches only on the ``part``-th fraction of the
  root's candidate groups, seeding its traversed store with all groups
  before the slice.  Sibling branches interact only through the traversed
  set, so slices are independent and their union is exactly the subtree.
* **LPT scheduling.**  Tasks are dispatched largest-estimate-first to the
  process pool, the classic longest-processing-time heuristic.

On top of the distribution sits the **resilient runtime**
(:mod:`repro.runtime`): execution goes through a
:class:`~repro.runtime.ResilientExecutor` that survives worker crashes and
stalls (bounded retries with exponential backoff, oversized tasks re-split
into root slices on retry), enforces run budgets (wall-clock deadline,
result cap) via per-task sub-deadlines plus a shared cancel event, and can
persist completed tasks to a JSONL **checkpoint** so a killed run resumes
without redoing finished subtrees.  Unrecoverable failures never raise:
the run returns a partial :class:`MBEResult` with ``complete=False`` and
per-task failure records in ``meta``.

Workers are forked with the graph shipped once through the pool
initializer; each task reconstructs its subproblem locally (cheap relative
to enumerating it) and returns counts, stats, and optionally the bicliques.

Caveat recorded with experiment R-F9: this container exposes a single CPU
core, so measured "speedups" here are scheduling overhead; the machinery
itself is exercised and verified regardless.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.ordering import rank_of, vertex_order
from repro.core.base import (
    Biclique,
    EnumerationStats,
    MBEAlgorithm,
    MBEResult,
    register,
)
from repro.core.decompose import build_subproblem
from repro.core.mbet import MBET
from repro.runtime.budget import BudgetExceeded, RunBudget
from repro.runtime.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    reconcile_tasks,
)
from repro.runtime.executor import ResilientExecutor
from repro.runtime.faults import FaultPlan

#: How many reports a worker accumulates before folding them into the
#: shared result counter (keeps the cross-process lock off the hot path).
_FLUSH_EVERY = 16

# Worker context materialized in each worker by the pool initializer.
_WORKER: dict = {}


def subtree_estimate(
    graph: BipartiteGraph, v: int, bound_size: int = 256
) -> tuple[int, int]:
    """``(estimate, height)`` for the first-level subtree rooted at ``v``.

    The cheap bound ``deg²`` stands in until it exceeds ``bound_size``;
    past that the 2-hop neighbourhood is consulted for the tighter
    ``min(deg, |N₂(v)|) · |N₂(v)|`` shape of the MBET work bound.
    """
    deg = graph.degree_v(v)
    if deg * deg > bound_size:
        n2 = len(graph.two_hop_v(v))
        height = min(deg, n2)
        return height * n2, height
    return deg * deg, deg


def addressable_roots(
    graph: BipartiteGraph, order: str = "degree", seed: int = 0
) -> list[int]:
    """The canonical list of first-level roots every slice address names.

    Deterministic in ``(order, seed)``: two processes that agree on the
    graph and the ordering agree on index ``i`` of every root, which is
    what makes a root range ``[lo, hi)`` a *serialisable* unit of work a
    coordinator can hand to a remote worker (:mod:`repro.cluster`).
    Degree-0 vertices root nothing and are excluded.
    """
    return [
        v
        for v in vertex_order(graph, order, seed=seed)
        if graph.degree_v(v) > 0
    ]


def plan_root_ranges(
    estimates: list[int], n_slices: int
) -> list[tuple[int, int]]:
    """Partition the addressable root space into ≤ ``n_slices`` ranges.

    ``estimates[i]`` is the :func:`subtree_estimate` of root ``i`` of
    :func:`addressable_roots`.  The result is contiguous ``[lo, hi)``
    index ranges over that root list, balanced by the estimates,
    covering the whole space with no overlap.  Fewer ranges are returned
    when there are fewer roots than requested slices.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    n_roots = len(estimates)
    if not n_roots:
        return []
    total = sum(estimates)
    n_slices = min(n_slices, n_roots)
    target = total / n_slices
    ranges: list[tuple[int, int]] = []
    lo, acc = 0, 0
    for i, est in enumerate(estimates):
        acc += est
        # keep enough roots back for the remaining slices
        remaining_slices = n_slices - len(ranges)
        if (
            acc >= target
            and n_roots - (i + 1) >= remaining_slices - 1
        ) or n_roots - (i + 1) == remaining_slices - 1:
            if remaining_slices > 1:
                ranges.append((lo, i + 1))
                lo, acc = i + 1, 0
    ranges.append((lo, n_roots))
    return ranges


class _LocalCounter:
    """In-process stand-in for the shared result counter (workers=1)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def add(self, n: int) -> int:
        self.value += n
        return self.value


class _ProbeEvent:
    """Event-shaped wrapper over a cancel probe (inline workers=1 runs).

    The worker context expects an object with ``is_set``; in-process
    execution can poll the caller's probe directly instead of a
    ``multiprocessing.Event``.
    """

    __slots__ = ("_probe",)

    def __init__(self, probe):
        self._probe = probe

    def is_set(self) -> bool:
        return bool(self._probe())


class _SharedCounter:
    """Cross-process result counter over a ``multiprocessing.Value``."""

    __slots__ = ("_v",)

    def __init__(self, mp_value):
        self._v = mp_value

    def add(self, n: int) -> int:
        with self._v.get_lock():
            self._v.value += n
            return self._v.value

    @property
    def value(self) -> int:
        return self._v.value


def _init_worker(
    graph: BipartiteGraph,
    rank: list[int],
    algo_options: dict,
    collect: bool,
    faults: FaultPlan | None,
    cancel_event,
    shared_counter,
    max_results: int | None,
    deadline: float | None,
    inline: bool = False,
) -> None:
    _WORKER.update(
        graph=graph,
        rank=rank,
        algo=MBET(**algo_options),
        collect=collect,
        faults=faults,
        cancel_event=cancel_event,
        shared=shared_counter,
        max_results=max_results,
        deadline=deadline,
        inline=inline,
    )


def _run_task(task: tuple[int, int, int], attempt: int):
    """Execute root-slice ``(v, part, n_parts)`` under the task budget.

    Returns ``(count, stats_dict, bicliques|None, complete, reason)``.
    A task cut short by a deadline or the shared result cap reports
    ``complete=False`` instead of raising, so the driver can fold its
    partial output into the run.
    """
    v, part, n_parts = task
    ctx = _WORKER
    graph, rank, algo = ctx["graph"], ctx["rank"], ctx["algo"]
    collect = ctx["collect"]
    faults: FaultPlan | None = ctx["faults"]
    if faults is not None:
        faults.apply(task, attempt, inline=ctx["inline"])

    cancel_event = ctx["cancel_event"]
    shared = ctx["shared"]
    max_results = ctx["max_results"]
    results: list[Biclique] = []

    # Per-task sub-deadline: remaining share of the run's wall-clock
    # budget.  CLOCK_MONOTONIC is system-wide, so the driver's absolute
    # deadline is comparable across forked workers — and, unlike
    # time.time(), an NTP step cannot stretch or collapse the budget.
    time_limit = None
    if ctx["deadline"] is not None:
        time_limit = ctx["deadline"] - time.monotonic()
        if time_limit <= 0:
            return 0, EnumerationStats().as_dict(), (
                results if collect else None
            ), False, "time_limit"

    probe = None
    if cancel_event is not None or (shared is not None and max_results is not None):
        def probe() -> bool:
            if cancel_event is not None and cancel_event.is_set():
                return True
            return (
                shared is not None
                and max_results is not None
                and shared.value >= max_results
            )

    count = 0
    unflushed = 0

    def report(left, right):
        nonlocal count, unflushed
        count += 1
        if collect:
            results.append(Biclique.make(left, right))
        if shared is not None:
            unflushed += 1
            if unflushed >= _FLUSH_EVERY:
                total = shared.add(unflushed)
                unflushed = 0
                if max_results is not None and total >= max_results:
                    raise BudgetExceeded("max_bicliques")

    budget = RunBudget(time_limit=time_limit, cancel=probe)
    with algo._session(graph, budget) as run:
        try:
            sub = build_subproblem(run.graph, v, rank)
            if sub is not None:
                algo._run_subproblem(
                    sub, report, run.stats, _part=part, _n_parts=n_parts
                )
        finally:
            if shared is not None and unflushed:
                shared.add(unflushed)
    return (
        count, run.stats.as_dict(), results if collect else None,
        run.complete, run.stopped,
    )


@register
class ParallelMBE(MBEAlgorithm):
    """Process-pool parallel MBET with load-aware splitting and recovery."""

    name = "parallel"

    def __init__(
        self,
        workers: int = 2,
        order: str = "degree",
        bound_height: int = 8,
        bound_size: int = 256,
        orient_smaller_v: bool = False,
        seed: int = 0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        task_timeout: float | None = None,
        checkpoint: str | os.PathLike[str] | None = None,
        faults: FaultPlan | None = None,
        min_left: int = 1,
        min_right: int = 1,
        root_range: tuple[int, int] | list[int] | None = None,
        engine_options: dict | None = None,
    ):
        super().__init__(orient_smaller_v=orient_smaller_v)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # a mapping or an (hashable) iterable of key/value pairs
        engine_options = dict(engine_options) if engine_options else {}
        reserved = {"order", "seed", "min_left", "min_right"}
        clash = reserved & set(engine_options)
        if clash:
            raise ValueError(
                f"engine_options may not override driver-owned keys {sorted(clash)}"
            )
        if bound_height < 1 or bound_size < 1:
            raise ValueError("split bounds must be positive")
        if min_left < 1 or min_right < 1:
            raise ValueError("size thresholds must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if root_range is not None:
            lo, hi = root_range
            if not (
                isinstance(lo, int) and isinstance(hi, int) and 0 <= lo < hi
            ):
                raise ValueError(
                    "root_range must be an integer pair [lo, hi) with "
                    "0 <= lo < hi"
                )
            root_range = (lo, hi)
        self.workers = workers
        self.order = order
        self.bound_height = bound_height
        self.bound_size = bound_size
        self.seed = seed
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.task_timeout = task_timeout
        self.checkpoint = checkpoint
        self.faults = faults
        self.min_left = min_left
        self.min_right = min_right
        self.root_range = root_range
        self.engine_options = dict(engine_options)

    # The framework hook is unused: results arrive from workers, not from
    # an in-process tree walk, so run() drives the session itself.
    def _enumerate(self, graph, report, stats):  # pragma: no cover
        raise NotImplementedError("ParallelMBE drives its own run()")

    def _estimate(self, graph: BipartiteGraph, v: int) -> tuple[int, int]:
        """(estimate, height) for the subtree rooted at ``v``."""
        return subtree_estimate(graph, v, self.bound_size)

    def _make_tasks(self, graph: BipartiteGraph) -> list[tuple[int, int, int]]:
        """Build root-slice tasks, largest estimated subtree first.

        With ``root_range=(lo, hi)`` only the roots at indices
        ``lo..hi-1`` of :func:`addressable_roots` are scheduled — the
        serialisable shard contract of the federated tier
        (:mod:`repro.cluster`): disjoint ranges over the same canonical
        root list partition the full result set exactly.
        """
        roots = addressable_roots(graph, self.order, seed=self.seed)
        if self.root_range is not None:
            lo, hi = self.root_range
            if lo >= len(roots):
                return []
            roots = roots[lo:min(hi, len(roots))]
        estimated: list[tuple[int, int, int]] = []  # (estimate, height, v)
        for v in roots:
            estimate, height = self._estimate(graph, v)
            estimated.append((estimate, height, v))
        tasks: list[tuple[int, int, int, int]] = []  # (estimate, v, part, n_parts)
        for estimate, height, v in estimated:
            if height > self.bound_height and estimate > self.bound_size:
                n_parts = min(4 * self.workers, 1 + estimate // self.bound_size)
                share = max(1, estimate // n_parts)
                tasks.extend((share, v, part, n_parts) for part in range(n_parts))
            else:
                tasks.append((estimate, v, 0, 1))
        tasks.sort(key=lambda t: (-t[0], t[1], t[2]))
        return [(v, part, n_parts) for _, v, part, n_parts in tasks]

    def _split_for_retry(
        self, graph: BipartiteGraph, task: tuple[int, int, int], attempts: int
    ) -> list[tuple[int, int, int]] | None:
        """Replace a failed whole-subtree task with root slices.

        Slices are never re-split (their identity must stay stable for
        checkpoint reconciliation), and subtrees too small to benefit are
        simply retried whole.
        """
        v, _part, n_parts = task
        if n_parts != 1:
            return None
        estimate, height = self._estimate(graph, v)
        if estimate <= self.bound_size or height <= 1:
            return None
        k = min(4 * self.workers, max(2, 1 + estimate // self.bound_size))
        return [(v, part, k) for part in range(k)]

    def _fingerprint(self, graph: BipartiteGraph, collect: bool) -> dict:
        """Identity of a run for checkpoint compatibility checks."""
        return {
            "n_u": graph.n_u,
            "n_v": graph.n_v,
            "n_edges": graph.n_edges,
            "order": self.order,
            "seed": self.seed,
            "bound_height": self.bound_height,
            "bound_size": self.bound_size,
            "workers": self.workers,
            "orient_smaller_v": self.orient_smaller_v,
            "min_left": self.min_left,
            "min_right": self.min_right,
            "root_range": (
                list(self.root_range) if self.root_range is not None else None
            ),
            # workers always run MBET; the constant keeps checkpoints from
            # before the worker engine stopped being selectable matching
            "engine": "mbet",
            "engine_options": dict(sorted(self.engine_options.items())),
            "collect": collect,
        }

    def run(
        self,
        graph: BipartiteGraph,
        collect: bool = True,
        budget: RunBudget | None = None,
        instrumentation=None,
        on_biclique=None,
    ) -> MBEResult:
        """Enumerate in parallel; degrades gracefully under any failure.

        Budgets are supported: a deadline is propagated to workers as
        per-task sub-deadlines, ``max_bicliques`` through a shared counter
        plus a cancel event.  Worker crashes and stalls are retried up to
        ``max_retries`` times; permanent failures land in
        ``meta["failures"]`` and flag the result ``complete=False`` rather
        than raising.  With ``checkpoint=path``, completed tasks are
        persisted as they finish and a restart skips them.

        ``instrumentation`` observes the whole distribution: task planning
        is timed as a ``decompose`` span, pooled execution as an
        ``enumerate`` span, each worker's stats snapshot is aggregated
        into the metric registry, and the executor publishes its
        retry/crash/stall counters and incident events.

        ``budget.cancel`` binds here too: the driver polls the probe
        between (and, pooled, *during*) task completions, relays it to
        workers through the shared cancel event, and returns a partial
        result with ``meta["stopped"] == "cancelled"``.  ``on_biclique``
        streams results (including checkpoint-resumed ones) to a
        caller-owned hook instead of collecting; workers still ship
        bicliques to the driver per task, so the hook sees them at task
        granularity.
        """
        if on_biclique is not None:
            collect = True  # workers ship bicliques; the hook owns storage
        # a checkpoint names the run in the caller's coordinates
        fingerprint = self._fingerprint(graph, collect)
        with self._session(
            graph, budget, instrumentation, collect, on_biclique,
            plan=self._make_tasks,
        ) as run:
            meta = self._distribute(run, budget, collect, fingerprint)
        return run.result(meta)

    def _distribute(
        self, run, budget: RunBudget | None, collect: bool, fingerprint: dict
    ) -> dict:
        """The body of :meth:`run`: execute the planned tasks, fold their
        results into ``run.sink``/``run.stats``, settle completeness and
        return the run's ``meta``."""
        work_graph, sink, stats, instr = (
            run.graph, run.sink, run.stats, self._instr
        )
        all_tasks = run.work
        rank = rank_of(vertex_order(work_graph, self.order, seed=self.seed))
        # inside the session the thresholds are in work coordinates
        algo_options = {
            "order": self.order,
            "seed": self.seed,
            "min_left": self.min_left,
            "min_right": self.min_right,
            **self.engine_options,
        }
        if instr.enabled:
            instr.gauge("parallel_workers", "pool size of the run").set(
                self.workers
            )
            instr.gauge("parallel_tasks", "root-slice tasks planned").set(
                len(all_tasks)
            )
        saw_partial = False
        partial_reasons: set[str] = set()
        meta: dict = {"workers": self.workers, "tasks": len(all_tasks)}

        # -- checkpoint: skip finished subtrees, keep persisting new ones --
        tasks = all_tasks
        writer: CheckpointWriter | None = None
        if self.checkpoint is not None:
            path = os.fspath(self.checkpoint)
            ckpt = load_checkpoint(path)
            resumed: list[dict] = []
            if ckpt is not None:
                ckpt.require_match(fingerprint, path)
                tasks, resumed = reconcile_tasks(all_tasks, ckpt, path)
            writer = CheckpointWriter(path, fingerprint, resume_records=resumed)
            for rec in resumed:
                stats.merge(EnumerationStats.from_dict(rec["stats"]))
                sink.absorb(rec["count"], [
                    Biclique.make(ls, rs) for ls, rs in rec["bicliques"] or ()
                ])
            meta["resumed_tasks"] = len(resumed)

        # -- budget wiring -------------------------------------------------
        # One monotonic deadline serves every consumer (executor loop and
        # per-task sub-deadlines in workers): CLOCK_MONOTONIC is
        # system-wide on the platforms we fork on, and a single clock
        # means an NTP step can never break budget math.
        max_results = budget.max_bicliques if budget is not None else None
        time_limit = budget.time_limit if budget is not None else None
        cancel_probe = budget.cancel if budget is not None else None
        deadline = (
            time.monotonic() + time_limit if time_limit is not None else None
        )

        pooled = self.workers > 1
        mp_ctx = multiprocessing.get_context("fork")
        cancel_event = (
            mp_ctx.Event()
            if pooled and (max_results is not None or cancel_probe is not None)
            else None
        )
        if max_results is not None:
            shared = (
                _SharedCounter(mp_ctx.Value("q", 0))
                if pooled
                else _LocalCounter()
            )
            shared.add(sink.count)  # resumed results count against the cap
        else:
            shared = None

        def on_result(task, outcome) -> None:
            nonlocal saw_partial
            task_count, stats_dict, task_bicliques, task_complete, reason = outcome
            stats.merge(EnumerationStats.from_dict(stats_dict))
            sink.absorb(task_count, task_bicliques)
            if instr.enabled:
                # per-worker snapshot: one trace event per task, plus a
                # progress pulse over the aggregated driver-side stats
                instr.event(
                    "task_done", task=list(task), count=task_count,
                    nodes=stats_dict.get("nodes", 0), complete=task_complete,
                )
                instr.on_report(sink.count, stats)
            if not task_complete:
                saw_partial = True
                if reason:
                    partial_reasons.add(reason)
            elif writer is not None:
                writer.record(
                    task, task_count, stats_dict,
                    task_bicliques if collect else None,
                )
            if (
                max_results is not None
                and sink.count >= max_results
                and cancel_event is not None
            ):
                cancel_event.set()

        externally_cancelled = False

        def _cancelled() -> bool:
            """Executor probe: external cancel first, then the result cap.

            An external cancellation is relayed to pooled workers through
            the shared event so in-flight tasks stop at their next guard
            boundary instead of running to completion.
            """
            nonlocal externally_cancelled
            if cancel_probe is not None and cancel_probe():
                externally_cancelled = True
                if cancel_event is not None:
                    cancel_event.set()
                return True
            return max_results is not None and sink.count >= max_results

        executor = ResilientExecutor(
            task_fn=_run_task,
            pool_factory=(
                (
                    lambda: ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=mp_ctx,
                        initializer=_init_worker,
                        initargs=(
                            work_graph, rank, algo_options, collect,
                            self.faults, cancel_event, shared, max_results,
                            deadline,
                        ),
                    )
                )
                if pooled
                else None
            ),
            on_result=on_result,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
            task_timeout=self.task_timeout,
            max_inflight=self.workers,
            deadline=deadline,
            instr=instr,
            cancel=(
                _cancelled
                if (max_results is not None or cancel_probe is not None)
                else None
            ),
            split_fn=lambda task, attempts: self._split_for_retry(
                work_graph, task, attempts
            ),
        )
        try:
            if not tasks:
                report = None
            elif pooled:
                report = executor.run(tasks)
            else:
                _init_worker(
                    work_graph, rank, algo_options, collect, self.faults,
                    (
                        _ProbeEvent(cancel_probe)
                        if cancel_probe is not None
                        else None
                    ),
                    shared, max_results, deadline, inline=True,
                )
                report = executor.run_serial(tasks)
        finally:
            if writer is not None:
                writer.close()
            _WORKER.clear()

        # -- fold the execution report into the result ---------------------
        stopped: str | None = None
        if report is not None:
            # the task ledger "complete" is derived from (and the fuzz
            # ledger oracle audits): handed + split_growth == completed
            meta["handed_tasks"] = len(tasks)
            meta["split_growth"] = report.split_growth
            meta["completed_tasks"] = report.completed
            if report.retries:
                meta["retries"] = report.retries
            if report.pool_restarts:
                meta["pool_restarts"] = report.pool_restarts
            if report.failures:
                meta["failures"] = [f.as_dict() for f in report.failures]
            if report.stopped == "time_limit":
                stopped = "time_limit"
            elif report.stopped == "cancelled":
                # the shared cancel path serves two masters: an external
                # probe reports "cancelled", the result cap "max_bicliques"
                stopped = (
                    "cancelled"
                    if externally_cancelled or max_results is None
                    else "max_bicliques"
                )
        if stopped is None and partial_reasons:
            if "max_bicliques" in partial_reasons or (
                "cancelled" in partial_reasons
                and max_results is not None
                and not externally_cancelled
            ):
                stopped = "max_bicliques"
            elif "time_limit" in partial_reasons:
                stopped = "time_limit"
            elif "cancelled" in partial_reasons:
                stopped = "cancelled"
        run.stopped = stopped

        # "complete" is a positive account, not the absence of a recorded
        # failure: every task handed to the executor (a split task
        # counting as its replacements) must have come back completed;
        # resumed tasks were accounted for by the checkpoint
        run.complete = (
            stopped is None
            and not saw_partial
            and (
                report is None
                or report.completed == len(tasks) + report.split_growth
            )
        )

        # Mirror the sequential result-cap semantics: never return more
        # than max_bicliques results (workers stop at amortized
        # boundaries, so the raw union can overshoot slightly; a
        # streaming hook has already seen the overshoot, bounded by the
        # workers' flush window).
        if max_results is not None and sink.count > max_results:
            sink.count = max_results
            del sink.results[max_results:]
            run.complete = False
        return meta
