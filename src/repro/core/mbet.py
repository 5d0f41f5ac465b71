"""MBET — the prefix-tree based maximal biclique enumeration algorithm.

This is the repository's reconstruction of the titled paper's contribution
(see DESIGN.md for the fidelity discussion).  MBET layers three techniques
over the ordered set-enumeration framework:

1. **First-level decomposition** (:mod:`repro.core.decompose`): one
   subproblem per enumeration vertex, confined to its 1-/2-hop
   neighbourhood, with containment pruning of duplicate subtrees.
2. **Signature space**: inside a subproblem every set is a subset of the
   root's left universe ``L₀``, so sets become bitmasks and every
   intersection one ``&``.  Candidates whose signatures coincide are
   *merged* — equal-signature vertices occur together in every maximal
   biclique — which collapses whole families of branches.
3. **Prefix tree node checking** (:class:`repro.core.prefixtree.PrefixTree`):
   traversed signatures are kept in a trie scoped to the current search
   path (inserted on traversal, removed on backtrack), and the maximality
   check becomes a pruned superset descent instead of a linear scan.

Feature flags (``use_trie``, ``use_merge``, ``use_sort``) exist for the
ablation experiment R-F6; all default to on.

Size-constrained mining ("large MBE", Liu et al. 2006): ``min_left`` /
``min_right`` restrict output to bicliques with ``|L| >= min_left`` and
``|R| >= min_right`` — and, beyond filtering, prune the search:

* a branch whose new left side is already below ``min_left`` can be cut
  because left sides only shrink down the tree, and
* a branch whose right side can never reach ``min_right`` (current R plus
  every remaining candidate vertex) can be cut because right sides only
  grow by remaining candidates.

Both cuts keep the traversed-set bookkeeping: a biclique later rejected by
a cut branch's Q entry is one whose maximal form lives inside that branch,
which the same bound proves is below threshold — so no qualifying biclique
is ever lost (property-tested against filtered brute force).
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import EnumerationStats, MBEAlgorithm, register
from repro.core.decompose import Subproblem, iter_subproblems
from repro.core.prefixtree import PrefixTree


class _TrieQ:
    """Traversed-set store backed by a prefix tree with an overflow list.

    Inserts rejected by the trie's node budget land in a multiset side
    list; queries consult the trie first and the overflow second.  Tokens
    returned by :meth:`insert` make backtracking removal exact.
    """

    __slots__ = ("trie", "overflow", "overflow_scans")

    def __init__(self, max_nodes: int | None):
        self.trie = PrefixTree(max_nodes=max_nodes)
        self.overflow: dict[int, int] = {}
        self.overflow_scans = 0

    def insert(self, mask: int) -> tuple[int, bool]:
        """Store a signature; the token records where it landed."""
        if self.trie.insert(mask):
            return (mask, True)
        self.overflow[mask] = self.overflow.get(mask, 0) + 1
        return (mask, False)

    def remove(self, token: tuple[int, bool]) -> None:
        """Remove one stored occurrence identified by its insert token."""
        mask, in_trie = token
        if in_trie:
            self.trie.remove(mask)
            return
        count = self.overflow[mask]
        if count == 1:
            del self.overflow[mask]
        else:
            self.overflow[mask] = count - 1

    def has_superset(self, query: int) -> bool:
        """True when any stored signature (trie or overflow) covers query."""
        if self.trie.has_superset(query):
            return True
        if self.overflow:
            self.overflow_scans += len(self.overflow)
            for mask in self.overflow:
                if mask & query == query:
                    return True
        return False


class _ListQ:
    """Linear-scan traversed-set store (the ``use_trie=False`` ablation)."""

    __slots__ = ("masks", "checks")

    def __init__(self) -> None:
        self.masks: list[int] = []
        self.checks = 0

    def insert(self, mask: int) -> int:
        """Append a signature; the token is its index."""
        self.masks.append(mask)
        return len(self.masks) - 1

    def remove(self, token: int) -> None:
        """Remove the signature at the token's index.

        Backtracking removes in LIFO order, so tokens always index the
        current tail."""
        del self.masks[token]

    def has_superset(self, query: int) -> bool:
        """True when any stored signature covers query (linear scan)."""
        self.checks += len(self.masks)
        for mask in self.masks:
            if mask & query == query:
                return True
        return False


@register
class MBET(MBEAlgorithm):
    """Prefix-tree based maximal biclique enumeration."""

    name = "mbet"

    #: Subclasses set True to activate :meth:`_prune_bound` /
    #: :meth:`_prune_subproblem` (branch-and-bound hooks used by the
    #: maximum-biclique search).
    _use_bound = False

    def __init__(
        self,
        order: str = "degree",
        use_trie: bool = True,
        use_merge: bool = True,
        use_sort: bool = True,
        trie_max_nodes: int | None = None,
        orient_smaller_v: bool = False,
        seed: int = 0,
        min_left: int = 1,
        min_right: int = 1,
    ):
        super().__init__(orient_smaller_v=orient_smaller_v)
        if min_left < 1 or min_right < 1:
            raise ValueError("size thresholds must be >= 1")
        self.order = order
        self.use_trie = use_trie
        self.use_merge = use_merge
        self.use_sort = use_sort
        self.trie_max_nodes = trie_max_nodes
        self.seed = seed
        self.min_left = min_left
        self.min_right = min_right

    # -- driver ---------------------------------------------------------------

    def _enumerate(
        self,
        graph: BipartiteGraph,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
    ) -> None:
        for _ in self._subtrees(graph, report, stats):
            pass

    def _subtrees(
        self,
        graph: BipartiteGraph,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
    ) -> Iterator[None]:
        """Run every first-level subproblem, yielding after each one.

        :meth:`_enumerate` drains it; the progressive driver
        (:meth:`repro.core.mbetm.MBETM.iter_bicliques`) hands out the
        results found between two steps.
        """
        # iter_subproblems probes the guard per root vertex, so a deadline
        # binds even when whole stretches of subproblems are pruned or
        # report nothing (the node-level tick alone would let a barren
        # prefix run long past it).
        for sub in iter_subproblems(
            graph, self.order, seed=self.seed, guard=self._guard
        ):
            self._run_subproblem(sub, report, stats)
            # coarse progress-liveness hook; no-op without instrumentation
            self._instr.pulse(stats)
            yield

    # -- branch-and-bound hooks (no-ops unless _use_bound is set) ---------

    def _prune_subproblem(self, sub: Subproblem) -> bool:
        """Return True to skip a whole subproblem (bound hook)."""
        return False

    def _prune_bound(self, new_left: int, reachable_right: int) -> bool:
        """Return True to cut a branch whose optimum cannot beat the
        incumbent (bound hook); the branch still joins the traversed set,
        which stays sound because every biclique it would later reject
        lives inside the branch and obeys the same bound."""
        return False

    # -- one first-level subtree ------------------------------------------------

    def _group(
        self, pairs: list[tuple[int, tuple[int, ...]]], stats: EnumerationStats
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Merge equal-signature candidate groups (when enabled) and order them."""
        if self.use_merge:
            merged: dict[int, tuple[int, ...]] = {}
            for mask, verts in pairs:
                prev = merged.get(mask)
                merged[mask] = verts if prev is None else prev + verts
            stats.merged_candidates += len(pairs) - len(merged)
            groups = list(merged.items())
        else:
            groups = pairs
        if self.use_sort:
            groups.sort(key=lambda g: (g[0].bit_count(), g[0]))
        return groups

    def _make_store(self):
        """Build the traversed-set store for one subproblem.

        Overridable seam: the fuzzing harness's deliberately-broken engine
        (``repro.check.selftest``) wraps the store to disable maximality
        checking, proving the differential oracles catch real bugs.
        """
        return _TrieQ(self.trie_max_nodes) if self.use_trie else _ListQ()

    def _run_subproblem(
        self,
        sub: Subproblem,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
        _part: int = 0,
        _n_parts: int = 1,
    ) -> None:
        """Enumerate one first-level subtree, or one root slice of it.

        Slice ``_part`` of ``_n_parts`` (the parallel engine's split
        tasks) branches only on its fraction of the root's candidate
        groups; earlier groups are seeded into the traversed store, so
        the slices of a subtree are independent and their union is the
        whole subtree.  A subproblem below ``min_left`` (left sides only
        shrink inside it) or cut by the bound hook is skipped whole.
        """
        if len(sub.space) < self.min_left or (
            self._use_bound and self._prune_subproblem(sub)
        ):
            stats.threshold_pruned += 1
            return
        stats.subtrees += 1
        space = sub.space
        store = self._make_store()
        for sig in sub.traversed:
            store.insert(sig)

        # The subproblem root is always a maximal biclique (L0 = C(right),
        # right = C(L0) by construction); it may still fail the size
        # filter.  Exactly one slice of a split subtree reports it.
        if _part == 0 and len(sub.right) >= self.min_right:
            report(space.universe, sub.right)

        pairs = [(mask, (w,)) for w, mask in sub.cands]
        groups = self._group(pairs, stats)
        lo = _part * len(groups) // _n_parts
        hi = (_part + 1) * len(groups) // _n_parts
        reachable_right = len(sub.right) + sum(len(v) for _, v in pairs)
        if lo < hi and reachable_right >= self.min_right:
            # earlier root branches act as already traversed; later groups
            # stay in the pool (they absorb and filter) but do not branch
            for mask, _verts in groups[:lo]:
                store.insert(mask)
            self._search(
                tuple(sub.right), groups[lo:], store, space, report, stats,
                branch_limit=hi - lo,
            )
        elif lo < hi:
            stats.threshold_pruned += 1

        self._fold_store_stats(store, stats)

    @staticmethod
    def _fold_store_stats(store, stats: EnumerationStats) -> None:
        """Fold one subproblem store's instrumentation into the run stats."""
        if isinstance(store, _TrieQ):
            trie = store.trie
            stats.checks += trie.queries
            saved = trie.scan_equivalent - trie.node_visits - store.overflow_scans
            if saved > 0:
                stats.trie_pruned += saved
            if trie.peak_nodes > stats.trie_peak_nodes:
                stats.trie_peak_nodes = trie.peak_nodes
            stats.trie_overflow += trie.rejected_inserts
        else:
            stats.checks += store.checks

    def _search(
        self,
        right: tuple[int, ...],
        groups: list[tuple[int, tuple[int, ...]]],
        store,
        space,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
        branch_limit: int | None = None,
    ) -> None:
        """Expand one enumeration node.

        ``groups`` holds ``(signature, vertices)`` with signatures already
        local to this node's left side: the signature *is* the new left
        side of the corresponding branch.  ``branch_limit`` restricts which
        leading groups start branches (later groups still participate in
        absorption and candidate filtering) — the parallel driver uses it
        to slice a root loop across tasks.
        """
        stats.nodes += 1
        self._guard.tick()
        tokens = []
        n = len(groups)
        n_branch = n if branch_limit is None else min(branch_limit, n)
        constrained = self.min_left > 1 or self.min_right > 1
        if constrained or self._use_bound:
            # suffix_verts[i] = vertices in groups[i:], the most R can still
            # gain from branch i onward
            suffix_verts = [0] * (n + 1)
            for i in range(n - 1, -1, -1):
                suffix_verts[i] = suffix_verts[i + 1] + len(groups[i][1])
        for i in range(n_branch):
            new_left, gverts = groups[i]
            if constrained and (
                new_left.bit_count() < self.min_left
                or len(right) + len(gverts) + suffix_verts[i + 1] < self.min_right
            ):
                # Below-threshold branch: its whole subtree (and every
                # biclique its Q entry will later reject) is below
                # threshold too, so cut it while keeping the Q bookkeeping.
                stats.threshold_pruned += 1
                tokens.append(store.insert(new_left))
                continue
            if self._use_bound and self._prune_bound(
                new_left, len(right) + len(gverts) + suffix_verts[i + 1]
            ):
                stats.threshold_pruned += 1
                tokens.append(store.insert(new_left))
                continue
            if store.has_superset(new_left):
                stats.non_maximal += 1
                tokens.append(store.insert(new_left))
                continue
            new_right = list(right)
            new_right.extend(gverts)
            child: list[tuple[int, tuple[int, ...]]] = []
            for j in range(i + 1, n):
                m2, v2 = groups[j]
                inter = m2 & new_left
                stats.intersections += 1
                if inter == new_left:
                    new_right.extend(v2)
                elif inter:
                    child.append((inter, v2))
            new_right.sort()
            if not constrained or len(new_right) >= self.min_right:
                report(space.decode(new_left), new_right)
            if child:
                self._search(
                    tuple(new_right),
                    self._group(child, stats),
                    store,
                    space,
                    report,
                    stats,
                )
            tokens.append(store.insert(new_left))
        for token in reversed(tokens):
            store.remove(token)
