"""The oracle battery: properties every engine must satisfy on any graph.

Each oracle factory binds its configuration and returns a deterministic
``graph -> OracleFailure | None`` callable, which is exactly the predicate
shape :func:`repro.check.shrink.shrink_graph` minimizes against.

Oracles
-------
``agreement``      definitional verification of every engine's result set
                   (:func:`repro.core.verify.verify_result`) plus
                   cross-engine set equality against a reference
                   (brute force when tractable, else the first engine).
``relabel``        vertex-relabeling equivariance: permuting ids permutes
                   the result set and nothing else.
``swap``           U/V-swap symmetry: enumerating the side-swapped graph
                   yields the side-swapped result set.
``threshold``      threshold monotonicity: the ``min_left``/``min_right``
                   result set equals the filtered unconstrained set.
``budget_prefix``  budget-prefix soundness: a ``max_bicliques``-capped run
                   returns a duplicate-free subset of the full set, and is
                   only incomplete when the cap actually bound.
``kill_resume``    kill/resume parity: a checkpointed parallel run killed
                   partway and resumed matches an uninterrupted run.
``ledger``         parallel task ledger: a run flagged ``complete`` got
                   back every task handed to the executor, a task split
                   on retry counting as its replacements.
``plan``           planner soundness: the configuration ``repro.plan``
                   picks for the graph enumerates the exact maximal
                   biclique set the reference produces.
``setops``         set-operation substrate agreement: the batched uint64
                   kernel layer, the sorted-sequence operations, and
                   :class:`~repro.setops.bitmap.Bitmap` must compute
                   identical intersections/unions/predicates on the
                   graph's adjacency rows plus seeded random and
                   adversarial rows.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import Biclique, MBEResult, run_mbe
from repro.core.verify import VerificationError, verify_result
from repro.check.engines import EngineSpec
from repro.runtime.budget import RunBudget
from repro.runtime.faults import FaultPlan

Oracle = Callable[[BipartiteGraph], "OracleFailure | None"]

#: Graphs whose V side is at most this wide get a brute-force reference.
BRUTEFORCE_MAX_SIDE = 16

#: Result sets larger than this skip the per-biclique definitional audit
#: (cross-engine equality still applies); keeps zoo-scale cases bounded.
VERIFY_MAX_RESULTS = 5000


@dataclass(frozen=True)
class OracleFailure:
    """One violated invariant: which oracle, which engine, what happened."""

    oracle: str
    engine: str
    detail: str

    def __str__(self) -> str:
        return f"{self.oracle}[{self.engine}]: {self.detail}"


def _diff(got: frozenset, want: frozenset) -> str:
    missing = sorted(want - got)[:3]
    extra = sorted(got - want)[:3]
    return (
        f"{len(want - got)} missing (e.g. {missing}), "
        f"{len(got - want)} unexpected (e.g. {extra})"
    )


def agreement_oracle(
    engines: Sequence[EngineSpec],
    reference: EngineSpec | None = None,
    verify: bool = True,
) -> Oracle:
    """Cross-engine set equality plus definitional verification."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        if reference is not None:
            ref_spec = reference
        elif min(graph.n_u, graph.n_v) <= BRUTEFORCE_MAX_SIDE:
            ref_spec = EngineSpec.make("bruteforce")
        else:
            ref_spec = engines[0]
        truth = ref_spec.result_set(graph)
        if verify and len(truth) <= VERIFY_MAX_RESULTS:
            try:
                verify_result(graph, truth)
            except VerificationError as exc:
                return OracleFailure("agreement", ref_spec.label(), str(exc))
        for spec in engines:
            result = spec.run(graph, collect=True)
            got = result.biclique_set()
            if verify and len(got) <= VERIFY_MAX_RESULTS:
                try:
                    verify_result(graph, got)
                except VerificationError as exc:
                    return OracleFailure("agreement", spec.label(), str(exc))
            if got != truth:
                return OracleFailure(
                    "agreement", spec.label(),
                    f"disagrees with {ref_spec.label()}: {_diff(got, truth)}",
                )
            if result.count != len(truth):
                return OracleFailure(
                    "agreement", spec.label(),
                    f"count {result.count} != {len(truth)} collected",
                )
        return None

    return check


def relabel_oracle(engine: EngineSpec, seed: int = 0) -> Oracle:
    """Vertex-relabeling equivariance under a seeded permutation."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        rng = random.Random(seed)
        pu = list(range(graph.n_u))
        pv = list(range(graph.n_v))
        rng.shuffle(pu)
        rng.shuffle(pv)
        permuted = BipartiteGraph(
            [(pu[u], pv[v]) for u, v in graph.edges()],
            n_u=graph.n_u, n_v=graph.n_v,
        )
        inv_u = {new: old for old, new in enumerate(pu)}
        inv_v = {new: old for old, new in enumerate(pv)}
        base = engine.result_set(graph)
        mapped = frozenset(
            Biclique.make(
                (inv_u[u] for u in b.left), (inv_v[v] for v in b.right)
            )
            for b in engine.result_set(permuted)
        )
        if mapped != base:
            return OracleFailure(
                "relabel", engine.label(),
                f"relabeled run diverges: {_diff(mapped, base)}",
            )
        return None

    return check


def swap_oracle(engine: EngineSpec) -> Oracle:
    """U/V-swap symmetry (and the ``orient_smaller_v`` code path with it)."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        base = engine.result_set(graph)
        # thresholds live in graph coordinates, so they swap with the sides
        opts = engine.opts()
        swapped_spec = engine
        if "min_left" in opts or "min_right" in opts:
            swapped_spec = engine.with_options(
                min_left=opts.get("min_right", 1),
                min_right=opts.get("min_left", 1),
            )
        swapped = frozenset(
            b.swap() for b in swapped_spec.result_set(graph.swap_sides())
        )
        if swapped != base:
            return OracleFailure(
                "swap", engine.label(),
                f"side-swapped run diverges: {_diff(swapped, base)}",
            )
        oriented = engine.with_options(orient_smaller_v=True)
        got = oriented.result_set(graph)
        if got != base:
            return OracleFailure(
                "swap", oriented.label(),
                f"orient_smaller_v run diverges: {_diff(got, base)}",
            )
        return None

    return check


def threshold_oracle(
    engine: EngineSpec, min_left: int = 2, min_right: int = 2
) -> Oracle:
    """Constrained result set == filtered unconstrained result set."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        full = engine.result_set(graph)
        want = frozenset(
            b for b in full
            if len(b.left) >= min_left and len(b.right) >= min_right
        )
        constrained = engine.with_options(
            min_left=min_left, min_right=min_right
        )
        got = constrained.result_set(graph)
        if got != want:
            return OracleFailure(
                "threshold", constrained.label(),
                f"(>= {min_left}, >= {min_right}) set != filtered "
                f"unconstrained set: {_diff(got, want)}",
            )
        return None

    return check


def budget_prefix_oracle(engine: EngineSpec, cap: int = 3) -> Oracle:
    """A ``max_bicliques``-capped run is a sound prefix of the full run."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        full = engine.result_set(graph)
        partial = engine.run(
            graph, collect=True, budget=RunBudget(max_bicliques=cap)
        )
        got_list = partial.bicliques or []
        got = frozenset(got_list)
        if len(got) != len(got_list):
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"capped run returned duplicates ({len(got_list)} results, "
                f"{len(got)} distinct)",
            )
        if not got <= full:
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"capped run returned bicliques outside the full set "
                f"(e.g. {sorted(got - full)[:2]})",
            )
        if partial.count != len(got_list):
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"count {partial.count} != {len(got_list)} collected",
            )
        if partial.count > cap:
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"cap {cap} overshot: {partial.count} results",
            )
        if partial.complete and got != full:
            return OracleFailure(
                "budget_prefix", engine.label(),
                "run flagged complete but missed results: "
                + _diff(got, full),
            )
        if not partial.complete and partial.count < min(cap, len(full)):
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"incomplete run undershot the cap: {partial.count} < "
                f"min({cap}, {len(full)})",
            )
        return None

    return check


def plan_oracle(min_left: int = 1, min_right: int = 1) -> Oracle:
    """The planner-chosen configuration enumerates the exact result set.

    Builds a plan for the graph (thresholds included, single core so the
    choice is deterministic), runs the chosen engine with the chosen
    thresholds, and compares against a reference enumeration filtered to
    the same thresholds.  This is the end-to-end guarantee the planner
    owes its callers: whatever the cost model ranks first must still be
    *correct* — speed predictions may be wrong, answers may not.
    """

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        from repro.plan import PlanError, build_plan

        try:
            plan = build_plan(
                graph, min_left=min_left, min_right=min_right, n_cores=1
            )
            chosen = plan.chosen
        except PlanError as exc:
            return OracleFailure("plan", "planner", str(exc))
        if min(graph.n_u, graph.n_v) <= BRUTEFORCE_MAX_SIDE:
            ref = EngineSpec.make("bruteforce")
        else:
            ref = EngineSpec.make("mbet")
        truth = frozenset(
            b for b in ref.result_set(graph)
            if len(b.left) >= min_left and len(b.right) >= min_right
        )
        opts: dict[str, int] = {}
        if min_left > 1 or min_right > 1:
            opts = {"min_left": min_left, "min_right": min_right}
        spec = EngineSpec.make(chosen.engine, **opts)
        got = spec.result_set(graph)
        if got != truth:
            return OracleFailure(
                "plan", spec.label(),
                f"planner-chosen engine diverges from {ref.label()}: "
                + _diff(got, truth),
            )
        return None

    return check


def setops_oracle(seed: int = 0, max_rows: int = 24) -> Oracle:
    """Differential agreement across the three set-operation substrates.

    Every enumeration engine reduces to set operations; this oracle takes
    the graph's own V-side adjacency rows (sets of U ids) plus seeded
    random and adversarial rows, and checks that the batched uint64
    kernel layer (:mod:`repro.setops.kernels`), the sorted-sequence
    operations (:mod:`repro.setops.sorted_ops`), and
    :class:`~repro.setops.bitmap.Bitmap` all agree with plain ``set``
    semantics — intersections, classification popcounts, subset/disjoint
    predicates, equal-row grouping, and the word-level partitioned union.
    Any future kernel change gets free correctness evidence on every fuzz
    case.
    """

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        from repro.setops import kernels, sorted_ops
        from repro.setops.bitmap import Bitmap

        rng = random.Random(seed)
        n_bits = max(graph.n_u, 1)
        rows: list[list[int]] = [
            list(graph.neighbors_v(v)) for v in range(graph.n_v)
        ]
        if len(rows) > max_rows:
            rows = rng.sample(rows, max_rows)
        # adversarial rows: empty, full universe, word-edge singletons,
        # alternating stripes — then seeded random fill
        universe = list(range(n_bits))
        rows += [[], universe, [0], [n_bits - 1], universe[::2], universe[1::2]]
        for _ in range(6):
            rows.append(
                sorted(rng.sample(universe, rng.randint(0, n_bits)))
            )

        sets = [frozenset(r) for r in rows]
        matrix = kernels.pack_indices(rows, n_bits)

        def fail(detail: str) -> OracleFailure:
            return OracleFailure("setops", "kernels", detail)

        # row packing and popcounts
        pcs = kernels.popcount_rows(matrix)
        for i, s in enumerate(sets):
            if kernels.unpack_indices(matrix[i]).tolist() != sorted(s):
                return fail(f"pack/unpack row {i} != {sorted(s)}")
            if int(pcs[i]) != len(s):
                return fail(f"popcount row {i}: {int(pcs[i])} != {len(s)}")

        # batched filter against a few pivot rows, vs set and Bitmap
        pivots = [i for i, s in enumerate(sets) if s][:4] or [0]
        for p in pivots:
            row, ps = matrix[p], sets[p]
            inter, pc, full, nonzero = kernels.filter_batch(
                matrix, row, int(pcs[p])
            )
            sub = kernels.subset_reduce(matrix, row)
            dis = kernels.disjoint_reduce(matrix, row)
            bp = Bitmap(sorted(ps))
            for i, s in enumerate(sets):
                want = s & ps
                bi = Bitmap(sorted(s))
                if kernels.unpack_indices(inter[i]).tolist() != sorted(want):
                    return fail(f"filter inter[{i}] vs pivot {p} != set &")
                if sorted(bi & bp) != sorted(want):
                    return fail(f"Bitmap & diverges on row {i} vs pivot {p}")
                if sorted_ops.intersect(rows[i], sorted(ps)) != sorted(want):
                    return fail(
                        f"sorted_ops.intersect diverges on row {i} "
                        f"vs pivot {p}"
                    )
                if int(pc[i]) != len(want):
                    return fail(f"filter pc[{i}] vs pivot {p} != |set &|")
                if bool(full[i]) != (want == ps):
                    return fail(f"filter full[{i}] vs pivot {p} misclassified")
                if bool(nonzero[i]) != bool(want):
                    return fail(
                        f"filter nonzero[{i}] vs pivot {p} misclassified"
                    )
                if bool(sub[i]) != (s <= ps):
                    return fail(f"subset_reduce[{i}] vs pivot {p} wrong")
                if bool(sub[i]) != sorted_ops.is_subset(rows[i], sorted(ps)):
                    return fail(
                        f"subset_reduce[{i}] vs sorted_ops.is_subset "
                        f"(pivot {p})"
                    )
                if bool(dis[i]) != (not want):
                    return fail(f"disjoint_reduce[{i}] vs pivot {p} wrong")

        # equal-row grouping == dict grouping on int masks
        unique, inverse = kernels.group_rows(matrix)
        masks = kernels.unpack_masks(matrix)
        if sorted(kernels.unpack_masks(unique)) != sorted(set(masks)):
            return fail("group_rows unique set != dict grouping")
        if kernels.unpack_masks(unique[inverse]) != masks:
            return fail("group_rows inverse does not reconstruct rows")

        # word-level partitioned union == sorted_ops.union_many == set union
        want_union = sorted(frozenset().union(*sets))
        for lanes in (1, 4, 7, 2 * kernels.words_for(n_bits) + 3):
            got = kernels.partitioned_union_rows(matrix, lanes).tolist()
            if got != want_union:
                return fail(
                    f"partitioned_union_rows(lanes={lanes}) != set union"
                )
        if sorted_ops.union_many(rows) != want_union:
            return fail("sorted_ops.union_many != set union")
        return None

    return check


def ledger_gap(result: MBEResult) -> str | None:
    """Why a ``complete`` parallel result is not backed by its task ledger.

    None when the ledger balances, the run is incomplete, or the result
    carries no ledger (serial engines).
    """
    meta = result.meta
    if not result.complete or "tasks" not in meta:
        return None
    handed = meta.get("handed_tasks", 0)
    growth = meta.get("split_growth", 0)
    completed = meta.get("completed_tasks", 0)
    if completed != handed + growth:
        return (
            f"flagged complete with {completed} completed tasks, but "
            f"{handed} were handed to the executor and splits added "
            f"{growth}"
        )
    return None


def ledger_oracle(engines: Sequence[EngineSpec]) -> Oracle:
    """``complete`` implies every parallel task came back completed.

    Runs each ``parallel`` spec twice — plainly, and with the first root
    crashing once so the retry path (and its re-splits) runs — and audits
    both results with :func:`ledger_gap`.  Both runs must also end
    complete: one crash is within every spec's retry budget.
    """
    parallel = [e for e in engines if e.name == "parallel"]

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        victim = next(
            (v for v in range(graph.n_v) if graph.degree_v(v) > 0), None
        )
        for spec in parallel:
            runs = [spec]
            if victim is not None:
                runs.append(spec.with_options(
                    faults=FaultPlan(crash_tasks=(victim,)),
                    retry_backoff=0.0,
                ))
            for run_spec in runs:
                result = run_spec.run(graph, collect=False)
                gap = ledger_gap(result)
                if gap is None and not result.complete:
                    gap = f"run ended incomplete: {result.meta}"
                if gap is not None:
                    return OracleFailure("ledger", run_spec.label(), gap)
        return None

    return check


def kill_resume_oracle(
    workers: int = 1,
    bound_height: int = 1,
    bound_size: int = 4,
) -> Oracle:
    """Kill a checkpointed parallel run partway, resume, expect parity.

    A :class:`FaultPlan` permanently crashes the first root's tasks, so
    the first run ends incomplete with its surviving tasks checkpointed;
    the resumed run must reconcile the recorded root slices and match an
    uninterrupted ``mbet`` run exactly (set and count).
    """

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        truth = run_mbe(graph, "mbet").biclique_set()
        victim = next(
            (v for v in range(graph.n_v) if graph.degree_v(v) > 0), None
        )
        common = dict(
            workers=workers, bound_height=bound_height, bound_size=bound_size
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.ckpt")
            if victim is not None:
                # first run: the victim root's tasks crash permanently, so
                # the run ends incomplete with surviving tasks checkpointed
                # (if the victim subtree was containment-pruned the run
                # completes; resume is then a pure checkpoint-skip replay)
                run_mbe(
                    graph, "parallel", checkpoint=path,
                    faults=FaultPlan(
                        crash_tasks=(victim,), crash_attempts=99
                    ),
                    max_retries=1, retry_backoff=0.0, **common,
                )
            second = run_mbe(
                graph, "parallel", checkpoint=path, **common
            )
        gap = ledger_gap(second)
        if gap is not None:
            return OracleFailure("kill_resume", "parallel", gap)
        if not second.complete:
            return OracleFailure(
                "kill_resume", "parallel",
                f"resumed run still incomplete: {second.meta}",
            )
        got = second.biclique_set()
        if got != truth:
            return OracleFailure(
                "kill_resume", "parallel",
                f"resumed run diverges from mbet: {_diff(got, truth)}",
            )
        if second.count != len(truth):
            return OracleFailure(
                "kill_resume", "parallel",
                f"resumed count {second.count} != {len(truth)}",
            )
        return None

    return check
