"""Closed-set ground truth for small graphs.

``(L, R)`` is a maximal biclique exactly when both sides are non-empty,
``L`` is the common neighbourhood of ``R`` and ``R`` is *closed* (the
common neighbourhood of ``L``).  Ganter's NextClosure visits each closed
subset of the enumeration side once, in lectic order, at most ``|V|``
closures apiece, over int bitmasks — instead of every subset of the
powerset.  Still exponential in the worst case (so is the answer) and
guarded by a size cap; it shares no code with the real engines and
exists purely as the oracle the property tests compare them against.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import EnumerationStats, MBEAlgorithm, register

#: Largest enumeration side the brute-force oracle accepts by default.
DEFAULT_MAX_SIDE = 22


def _members(mask: int) -> list[int]:
    """Set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@register
class BruteForceMBE(MBEAlgorithm):
    """Exponential oracle: every closed subset of the smaller side."""

    name = "bruteforce"

    def __init__(self, max_side: int = DEFAULT_MAX_SIDE, orient_smaller_v: bool = True):
        super().__init__(orient_smaller_v=orient_smaller_v)
        self.max_side = max_side

    def _enumerate(
        self,
        graph: BipartiteGraph,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
    ) -> None:
        n_v = graph.n_v
        if n_v > self.max_side:
            raise ValueError(
                f"brute force refuses |V| = {n_v} > {self.max_side}; "
                "raise max_side explicitly if you really mean it"
            )
        adj_v = [sum(1 << u for u in graph.neighbors_v(v)) for v in range(n_v)]
        adj_u = [sum(1 << v for v in graph.neighbors_u(u))
                 for u in range(graph.n_u)]
        all_u = sum(1 << u for u, adj in enumerate(adj_u) if adj)
        all_v = (1 << n_v) - 1

        def closure(right: int) -> tuple[int, int]:
            """``L`` = common neighbours of ``right``; closed = those of ``L``."""
            stats.nodes += 1
            self._guard.tick()
            left = all_u
            for v in _members(right):
                left &= adj_v[v]
            closed = all_v
            for u in _members(left):
                closed &= adj_u[u]
            stats.intersections += right.bit_count() + left.bit_count()
            return left, closed

        left, closed = closure(0)
        while True:
            self._instr.pulse(stats)  # no-op without instrumentation
            if left and closed:
                report(_members(left), _members(closed))
            # NextClosure: the lectically next closed set, or stop
            prefix = closed
            for i in reversed(range(n_v)):
                bit = 1 << i
                if prefix & bit:
                    prefix ^= bit
                    continue
                cand_left, cand = closure(prefix | bit)
                if cand & ~prefix & (bit - 1) == 0:
                    left, closed = cand_left, cand
                    break
                # closes onto a set that an earlier step reaches
                stats.non_maximal += 1
            else:
                return
