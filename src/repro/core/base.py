"""Shared framework for all MBE algorithms: results, stats, the run, registry.

Every algorithm subclasses :class:`MBEAlgorithm` and implements a single
method that walks its enumeration tree and calls ``report(ls, rs)`` for each
maximal biclique.  The framework supplies:

* canonical :class:`Biclique` values (sorted tuples on both sides),
* :class:`EnumerationStats` counters every experiment reads,
* one run session (:meth:`MBEAlgorithm._session`) that every driver goes
  through: orientation, size thresholds, run budgets, recursion limit,
  instrumentation and the one reporting sink,
* an algorithm registry so benchmarks and the CLI can select by name.
"""

from __future__ import annotations

import sys
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from repro.runtime.budget import NULL_GUARD, BudgetExceeded, BudgetGuard, RunBudget


@dataclass(frozen=True, order=True)
class Biclique:
    """A maximal biclique ``(L, R)`` in canonical form (sorted tuples)."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    @classmethod
    def make(cls, left: Iterable[int], right: Iterable[int]) -> "Biclique":
        """Canonicalize arbitrary iterables into a :class:`Biclique`."""
        return cls(tuple(sorted(left)), tuple(sorted(right)))

    def swap(self) -> "Biclique":
        """Return the biclique with sides exchanged (for side-swapped graphs)."""
        return Biclique(self.right, self.left)

    @property
    def n_edges(self) -> int:
        """Number of edges the biclique covers, ``|L| * |R|``."""
        return len(self.left) * len(self.right)


class EnumerationStats:
    """Counters accumulated during one enumeration run.

    ``nodes``            enumeration-tree nodes expanded
    ``maximal``          maximal bicliques reported (α in the papers)
    ``non_maximal``      nodes rejected by the maximality check (δ)
    ``checks``           individual traversed-vertex containment tests
    ``trie_pruned``      containment tests answered by prefix-tree descent
                         without touching every stored set
    ``intersections``    neighbourhood intersections performed
    ``merged_candidates`` candidates absorbed by equal-signature merging
    ``subtrees``         first-level subproblems processed
    ``trie_subtrees``    of those, the ones whose node checks ran on a
                         prefix tree (the rest scanned a list)
    ``trie_peak_nodes``  peak prefix-tree size (MBET/MBETM only)
    ``trie_overflow``    containment sets that did not fit the trie budget
    ``threshold_pruned`` branches cut by min_left/min_right bounds
    ``kernel_nodes``     nodes expanded on the packed-kernel path
    ``kernel_batches``   batched filter kernel dispatches
    ``kernel_rows``      candidate rows processed by those dispatches
                         (the three kernel counters stay zero: no engine
                         runs the packed kernels; they remain so stats
                         recorded in older checkpoints still load)
    """

    __slots__ = (
        "nodes",
        "maximal",
        "non_maximal",
        "checks",
        "trie_pruned",
        "intersections",
        "merged_candidates",
        "subtrees",
        "trie_subtrees",
        "trie_peak_nodes",
        "trie_overflow",
        "threshold_pruned",
        "kernel_nodes",
        "kernel_batches",
        "kernel_rows",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """Return all counters as a plain dict (for tables and JSON)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, counters: dict[str, int]) -> "EnumerationStats":
        """Rebuild stats from :meth:`as_dict` output (worker results,
        checkpoint records); unknown keys are ignored."""
        stats = cls()
        for name in cls.__slots__:
            if name in counters:
                setattr(stats, name, counters[name])
        return stats

    def merge(self, other: "EnumerationStats") -> None:
        """Accumulate another stats object (peaks take the max)."""
        for name in self.__slots__:
            if name == "trie_peak_nodes":
                setattr(self, name, max(getattr(self, name), getattr(other, name)))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"EnumerationStats({body})"


@dataclass
class MBEResult:
    """Outcome of one enumeration run."""

    algorithm: str
    count: int
    elapsed: float
    stats: EnumerationStats
    bicliques: list[Biclique] | None = None
    complete: bool = True
    meta: dict = field(default_factory=dict)

    def biclique_set(self) -> frozenset[Biclique]:
        """Return results as a set (requires the run to have collected them)."""
        if self.bicliques is None:
            raise ValueError("run was executed with collect=False")
        return frozenset(self.bicliques)


class _Sink:
    """The one reporter: every run hands it to its engine as ``report``.

    Each call counts one maximal biclique.  When collecting, the result
    is canonicalized into a :class:`Biclique` in the caller's orientation
    and either kept in ``results`` or handed to a caller-owned ``hook``
    (the streaming seam that lets the serving layer degrade from in-RAM
    collection to spooling to count-only mid-run).  ``guard`` (an armed
    budget, enforcing the exact result cap) and ``instr`` (enabled
    instrumentation, driving progress heartbeats) are None when absent,
    so the plain path pays two ``is None`` branches and no clock reads.
    """

    __slots__ = (
        "collect", "swapped", "hook", "guard", "instr", "stats", "results",
        "count",
    )

    def __init__(self, collect: bool, swapped: bool,
                 hook: Callable[[Biclique], None] | None,
                 guard: BudgetGuard | None,
                 instr: Instrumentation | None,
                 stats: EnumerationStats):
        self.collect = collect or hook is not None
        self.swapped = swapped
        self.hook = hook
        self.guard = guard
        self.instr = instr
        self.stats = stats
        self.results: list[Biclique] = []
        self.count = 0

    def __call__(self, left: Iterable[int], right: Iterable[int]) -> None:
        self.count += 1
        if self.collect:
            b = Biclique.make(left, right)
            if self.swapped:
                b = b.swap()
            if self.hook is None:
                self.results.append(b)
            else:
                self.hook(b)
        if self.guard is not None:
            self.guard.on_report(self.count)
        if self.instr is not None:
            self.instr.on_report(self.count, self.stats)

    def absorb(self, count: int, bicliques: list[Biclique] | None) -> None:
        """Take ``count`` results found elsewhere (worker tasks, checkpoint
        records); ``bicliques`` are canonical and in work orientation."""
        self.count += count
        if not (self.collect and bicliques):
            return
        if self.swapped:
            bicliques = [b.swap() for b in bicliques]
        if self.hook is None:
            self.results.extend(bicliques)
        else:
            for b in bicliques:
                self.hook(b)


class _Run:
    """One run in progress, as :meth:`MBEAlgorithm._session` yields it.

    ``graph`` is the work graph (oriented when the engine asks for it),
    ``sink`` the reporter and ``work`` the session's ``plan`` output.
    The session sets ``complete``/``stopped`` when a budget trips; a
    driver that accounts for completeness itself (the parallel task
    ledger) sets them before the body ends.
    """

    __slots__ = (
        "algorithm", "graph", "stats", "sink", "work", "started", "elapsed",
        "complete", "stopped",
    )

    def __init__(self, algorithm: str, graph: BipartiteGraph,
                 stats: EnumerationStats, sink: _Sink):
        self.algorithm = algorithm
        self.graph = graph
        self.stats = stats
        self.sink = sink
        self.work = None
        self.started = self.elapsed = 0.0
        self.complete = True
        self.stopped: str | None = None

    def result(self, meta: dict | None = None) -> MBEResult:
        """The finished run as an :class:`MBEResult`."""
        meta = {} if meta is None else meta
        if self.stopped:
            meta["stopped"] = self.stopped
        sink = self.sink
        return MBEResult(
            algorithm=self.algorithm,
            count=sink.count,
            elapsed=self.elapsed,
            stats=self.stats,
            bicliques=(
                sink.results if sink.collect and sink.hook is None else None
            ),
            complete=self.complete,
            meta=meta,
        )


class MBEAlgorithm(ABC):
    """Base class: subclasses implement :meth:`_enumerate` only.

    ``orient_smaller_v=True`` (the literature's convention) transparently
    swaps the graph so the enumeration side V is the smaller one, and swaps
    reported bicliques back.
    """

    #: registry name, overridden per subclass
    name: str = "abstract"

    #: Active budget guard for the current run.  Enumeration loops call
    #: ``self._guard.tick()`` once per tree node and
    #: ``self._guard.check_now()`` at subproblem boundaries; outside a
    #: budgeted run this is the no-op :data:`NULL_GUARD`, so the unbudgeted
    #: path pays one attribute lookup and an empty call per node.
    _guard = NULL_GUARD

    #: Active instrumentation handle for the current run.  Enumeration
    #: loops call ``self._instr.pulse(stats)`` at coarse boundaries (per
    #: subproblem or root branch) so progress stays alive through barren
    #: stretches; outside an instrumented run this is the no-op
    #: :data:`NULL_INSTRUMENTATION` (zero clock reads).
    _instr = NULL_INSTRUMENTATION

    def __init__(self, orient_smaller_v: bool = False):
        self.orient_smaller_v = orient_smaller_v

    @abstractmethod
    def _enumerate(
        self,
        graph: BipartiteGraph,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
    ) -> None:
        """Walk the enumeration tree, calling ``report`` per maximal biclique."""

    @contextmanager
    def _session(
        self,
        graph: BipartiteGraph,
        budget: RunBudget | None = None,
        instrumentation: Instrumentation | None = None,
        collect: bool = True,
        on_biclique: Callable[[Biclique], None] | None = None,
        plan: Callable[[BipartiteGraph], list] | None = None,
    ) -> Iterator[_Run]:
        """The run protocol every driver goes through.

        On entry the session orients the graph, swaps the size thresholds
        into the work graph's coordinates, arms the budget, builds the
        sink, sizes the recursion limit, installs the guard and the
        instrumentation on the engine, runs ``plan(work_graph)`` (if
        given) as the ``decompose`` phase and starts the run
        (``begin_run``).  The body runs as the ``enumerate`` phase; a
        tripped budget ends it with ``complete=False`` and the stop
        reason.  On exit everything installed is restored and the run is
        published (``end_run``); other exceptions propagate unpublished.
        """
        instr = (
            instrumentation if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        if budget is not None:
            budget.validate()
            if budget.unbounded:
                budget = None  # the zero-overhead path
        work_graph, swapped = (
            graph.oriented_smaller_v() if self.orient_smaller_v else (graph, False)
        )
        stats = EnumerationStats()
        guard = NULL_GUARD if budget is None else budget.arm()
        sink = _Sink(
            collect, swapped, on_biclique,
            guard if budget is not None else None,
            instr if instr.enabled else None, stats,
        )
        run = _Run(self.name, work_graph, stats, sink)
        # Size thresholds are stated in the caller's coordinates; on a
        # swapped work graph the caller's left-side bound binds the right
        # side.  Engines without thresholds have nothing to swap.
        swap_thresholds = swapped and hasattr(self, "min_left")
        if swap_thresholds:
            self.min_left, self.min_right = self.min_right, self.min_left
        # Enumeration recursion is bounded by the V side, but signature
        # chains inside a subtree can be as deep as the largest left
        # universe, so size the limit on both sides.  Pure-Python recursion
        # in CPython >= 3.11 does not grow the C stack per frame.
        depth_need = 4 * (work_graph.n_v + work_graph.n_u + 64)
        old_limit = sys.getrecursionlimit()
        if depth_need > old_limit:
            sys.setrecursionlimit(depth_need)
        self._guard = guard
        self._instr = instr
        try:
            if plan is not None:
                with instr.phase("decompose"):
                    run.work = plan(work_graph)
            if instr.enabled:
                instr.begin_run(
                    self.name, stats,
                    total_subtrees=(
                        len(run.work) if plan is not None
                        else sum(1 for v in range(work_graph.n_v)
                                 if work_graph.degree_v(v) > 0)
                    ),
                )
            run.started = time.perf_counter()
            try:
                with instr.phase("enumerate"):
                    yield run
            except BudgetExceeded as exc:
                run.complete = False
                run.stopped = exc.reason or guard.reason or "limit"
            run.elapsed = time.perf_counter() - run.started
        finally:
            self._guard = NULL_GUARD
            self._instr = NULL_INSTRUMENTATION
            if swap_thresholds:
                self.min_left, self.min_right = self.min_right, self.min_left
            if depth_need > old_limit:
                sys.setrecursionlimit(old_limit)
        stats.maximal = sink.count
        if instr.enabled:
            instr.end_run(
                self.name, stats, run.elapsed, sink.count, run.complete
            )

    def run(
        self,
        graph: BipartiteGraph,
        collect: bool = True,
        budget: RunBudget | None = None,
        instrumentation: Instrumentation | None = None,
        on_biclique: Callable[[Biclique], None] | None = None,
    ) -> MBEResult:
        """Enumerate all maximal bicliques of ``graph``.

        With ``collect=False`` only counts and stats are kept, which is what
        the large benchmarks use (storing tens of thousands of bicliques
        would measure the allocator, not the algorithm).

        ``budget`` bounds the run; a tripped budget yields a partial result
        with ``complete=False`` and the stop reason in ``meta["stopped"]``.

        ``instrumentation`` attaches the observability subsystem
        (``docs/observability.md``): the ``enumerate`` phase is timed as a
        tracer span, the run's stats publish into the metric registry, and
        progress heartbeats fire from the reporting path.  Without it the
        run carries :data:`NULL_INSTRUMENTATION` and performs zero
        instrumentation clock reads.

        ``on_biclique``, when given, receives every maximal biclique as a
        canonical :class:`Biclique` the moment it is reported, and the
        caller owns storage: ``MBEResult.bicliques`` is ``None`` and
        ``collect`` is ignored.  This is the streaming seam the serving
        layer's memory watchdog uses to swap collection strategies
        mid-run (``docs/serving.md``).
        """
        with self._session(
            graph, budget, instrumentation, collect, on_biclique
        ) as run:
            self._enumerate(run.graph, run.sink, run.stats)
        return run.result()


#: name -> algorithm factory; populated by the algorithm modules at import.
ALGORITHMS: dict[str, Callable[..., MBEAlgorithm]] = {}


def register(factory: Callable[..., MBEAlgorithm]) -> Callable[..., MBEAlgorithm]:
    """Class decorator adding an algorithm to the registry by its ``name``."""
    name = getattr(factory, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"algorithm {factory!r} must define a unique name")
    if name in ALGORITHMS:
        raise ValueError(f"duplicate algorithm name {name!r}")
    ALGORITHMS[name] = factory
    return factory


def available_algorithms() -> list[str]:
    """Return the registered algorithm names, sorted."""
    return sorted(ALGORITHMS)


def run_mbe(
    graph: BipartiteGraph,
    algorithm: str = "mbet",
    collect: bool = True,
    max_bicliques: int | None = None,
    time_limit: float | None = None,
    node_limit: int | None = None,
    budget: RunBudget | None = None,
    instrumentation: Instrumentation | None = None,
    on_biclique: Callable[[Biclique], None] | None = None,
    **options,
) -> MBEResult:
    """Run a registered algorithm by name — the library's main entry point.

    ``max_bicliques`` / ``time_limit`` / ``node_limit`` are shorthand for
    a :class:`~repro.runtime.RunBudget`; pass ``budget`` directly for the
    full set of stop conditions (external cancellation, custom check
    interval).  The enumeration-node cap is named ``node_limit`` here
    because ``max_nodes`` is already MBETM's trie-budget constructor
    option, which ``**options`` forwards.

    ``instrumentation`` attaches an :class:`repro.obs.Instrumentation`
    handle: metrics, phase spans, and progress heartbeats for the run.
    ``on_biclique`` streams every result to a caller-owned hook instead
    of collecting (see :meth:`MBEAlgorithm.run`).

    >>> from repro import BipartiteGraph, run_mbe
    >>> g = BipartiteGraph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])
    >>> sorted(b.right for b in run_mbe(g, "mbet").bicliques)
    [(0, 1), (1,)]
    """
    try:
        factory = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; available: {available_algorithms()}"
        ) from None
    algo = factory(**options)
    if budget is None and (
        max_bicliques is not None or time_limit is not None or node_limit is not None
    ):
        budget = RunBudget(
            time_limit=time_limit,
            max_bicliques=max_bicliques,
            max_nodes=node_limit,
        )
    return algo.run(
        graph, collect=collect, budget=budget,
        instrumentation=instrumentation, on_biclique=on_biclique,
    )
