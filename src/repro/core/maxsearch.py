"""Exact maximum-biclique search (branch-and-bound over the MBET search).

Three classic objectives from the biclique-search literature (maximum
biclique search, personalized maximum biclique search):

``edges``     maximize ``|L| * |R|`` (maximum edge biclique)
``vertices``  maximize ``|L| + |R|`` (maximum vertex biclique)
``balanced``  maximize ``min(|L|, |R|)`` (maximum balanced biclique)

All three objectives are monotone under biclique extension, so the optimum
is attained at a *maximal* biclique and the MBET enumeration space suffices.
The search runs MBET with an incumbent-driven bound: a branch whose best
conceivable value — computed from its left signature and the vertices its
right side can still absorb — cannot beat the incumbent is cut exactly like
a size-threshold violation (the cut branch still joins the traversed set,
which stays sound because everything it would later reject lives inside
the branch and obeys the same bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import Biclique, EnumerationStats
from repro.core.decompose import Subproblem
from repro.core.mbet import MBET

#: objective name -> value(|L|, |R|)
OBJECTIVES = {
    "edges": lambda nl, nr: nl * nr,
    "vertices": lambda nl, nr: nl + nr,
    "balanced": lambda nl, nr: min(nl, nr),
}


@dataclass
class MaximumBicliqueResult:
    """Outcome of a maximum-biclique search."""

    biclique: Biclique | None
    value: int
    objective: str
    stats: EnumerationStats


class _MaximumSearch(MBET):
    """MBET with incumbent bounding; not registered (returns one result)."""

    name = "_maximum_search"
    _use_bound = True

    def __init__(self, objective: str, **kwargs):
        super().__init__(**kwargs)
        self._value = OBJECTIVES[objective]
        self.best_value = 0
        self.best: Biclique | None = None

    def observe(self, left, right) -> None:
        """Incumbent update, called for every enumerated biclique."""
        value = self._value(len(left), len(right))
        if value > self.best_value:
            self.best_value = value
            self.best = Biclique.make(left, right)

    def _prune_subproblem(self, sub: Subproblem) -> bool:
        reachable_right = len(sub.right) + len(sub.cands)
        upper = self._value(len(sub.space), reachable_right)
        return upper <= self.best_value

    def _prune_bound(self, new_left: int, reachable_right: int) -> bool:
        upper = self._value(new_left.bit_count(), reachable_right)
        return upper <= self.best_value


def find_maximum_biclique(
    graph: BipartiteGraph,
    objective: str = "edges",
    min_left: int = 1,
    min_right: int = 1,
    order: str = "degree_desc",
) -> MaximumBicliqueResult:
    """Return an optimum maximal biclique under ``objective``.

    ``min_left`` / ``min_right`` restrict the feasible set (useful to ask
    e.g. for the largest biclique with at least 3 vertices a side);
    ``order`` defaults to descending degree so large subtrees are explored
    first and the incumbent tightens early.  Returns ``biclique=None`` with
    ``value=0`` when no biclique satisfies the constraints.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
        )
    algo = _MaximumSearch(
        objective, min_left=min_left, min_right=min_right, order=order
    )
    with algo._session(graph, collect=False) as run:
        algo._enumerate(run.graph, algo.observe, run.stats)
    run.stats.maximal = 1 if algo.best is not None else 0
    return MaximumBicliqueResult(
        biclique=algo.best,
        value=algo.best_value,
        objective=objective,
        stats=run.stats,
    )
