"""MBETM — the space-optimized variant of MBET.

MBET's prefix tree grows with the traversed set of the current search path;
on adversarial inputs that is O(path length x signature width) trie nodes.
MBETM caps the trie at ``max_nodes``: inserts beyond the budget fall back
to a flat overflow multiset (bounded by the path length, i.e. the same
asymptotic footprint as MBEA's Q list), trading query speed for a hard
memory bound.  This mirrors the published description of MBETM as the
variant that sacrifices some throughput to keep space bounded on inputs
with billions of bicliques.

The class also exposes :meth:`iter_bicliques`, a generator that yields
results subtree-by-subtree with timestamps — the progressive-enumeration
experiment (R-F5: "bicliques produced over time") is driven by it.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import Biclique, register
from repro.core.mbet import MBET
from repro.runtime.budget import RunBudget

#: Default prefix-tree node budget (per subtree), chosen so the trie fits
#: comfortably in cache while still absorbing the common case.
DEFAULT_BUDGET = 4096


@register
class MBETM(MBET):
    """MBET under a hard prefix-tree node budget."""

    name = "mbetm"

    def __init__(
        self,
        order: str = "degree",
        max_nodes: int = DEFAULT_BUDGET,
        use_merge: bool = True,
        use_sort: bool = True,
        orient_smaller_v: bool = False,
        seed: int = 0,
        min_left: int = 1,
        min_right: int = 1,
    ):
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        super().__init__(
            order=order,
            use_trie=True,
            use_merge=use_merge,
            use_sort=use_sort,
            trie_max_nodes=max_nodes,
            orient_smaller_v=orient_smaller_v,
            seed=seed,
            min_left=min_left,
            min_right=min_right,
        )

    @property
    def max_nodes(self) -> int:
        """The prefix-tree node budget this instance enforces."""
        assert self.trie_max_nodes is not None
        return self.trie_max_nodes

    def iter_bicliques(
        self,
        graph: BipartiteGraph,
        budget: RunBudget | None = None,
        instrumentation=None,
    ) -> Iterator[tuple[float, Biclique]]:
        """Yield ``(seconds_since_start, biclique)`` progressively.

        Results stream out after each first-level subtree completes, so a
        consumer can plot cumulative output over time or stop early without
        paying for the full enumeration.  An optional ``budget`` bounds the
        walk; when it trips, the generator yields what the interrupted
        subtree had found and stops (everything yielded is exact, and a
        result cap binds exactly).  ``instrumentation`` observes the walk
        like :meth:`run` observes a batch run.
        """
        with self._session(graph, budget, instrumentation) as run:
            found = run.sink.results
            for _ in self._subtrees(run.graph, run.sink, run.stats):
                now = time.perf_counter() - run.started
                for b in found:
                    yield now, b
                found.clear()
        now = time.perf_counter() - run.started
        for b in found:
            yield now, b
