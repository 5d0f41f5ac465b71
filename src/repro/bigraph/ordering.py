"""Vertex-ordering strategies for the enumeration side.

Every set-enumeration-tree MBE algorithm fixes a total order on the
enumeration side V before starting; the order decides both the shape of the
tree (how early large subtrees are cut off by the traversed-set Q) and the
effectiveness of containment pruning.  The literature converged on
ascending degree as the robust default; the unilateral order (ooMBEA) also
accounts for 2-hop structure.  The ordering-sensitivity experiment (R-F8)
sweeps all strategies below.
"""

from __future__ import annotations

from repro.bigraph.graph import BipartiteGraph

#: Names accepted by :func:`vertex_order`.
ORDER_STRATEGIES = (
    "natural",
    "degree",
    "degree_desc",
    "unilateral",
    "two_hop",
    "degeneracy",
    "random",
)


def degeneracy_order(graph: BipartiteGraph) -> tuple[list[int], int]:
    """Min-degree peeling over both sides; returns (V order, degeneracy).

    Repeatedly removes the minimum-degree vertex of the remaining graph
    (either side); V vertices are emitted in peel order.  The largest
    degree seen at removal time is the graph's degeneracy — peeling early
    inside sparse fringes keeps enumeration subtrees shallow, the same
    motivation as ascending degree but adaptive to already-peeled mass.
    Runs in O(|E| + |U| + |V|) with a bucket queue.
    """
    n_u, n_v = graph.n_u, graph.n_v
    deg = [graph.degree_u(u) for u in range(n_u)]
    deg += [graph.degree_v(v) for v in range(n_v)]  # V ids offset by n_u
    max_deg = max(deg, default=0)
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for x, d in enumerate(deg):
        buckets[d].append(x)
    removed = [False] * (n_u + n_v)
    order_v: list[int] = []
    degeneracy = 0
    cursor = 0
    for _ in range(n_u + n_v):
        # pop a live vertex of minimum degree; stale bucket entries (from
        # decrements) are skipped, and the cursor backs up after decrements
        while True:
            while cursor <= max_deg and not buckets[cursor]:
                cursor += 1
            x = buckets[cursor].pop()
            if not removed[x] and deg[x] == cursor:
                break
        removed[x] = True
        if deg[x] > degeneracy:
            degeneracy = deg[x]
        if x >= n_u:
            order_v.append(x - n_u)
            neighbors = graph.neighbors_v(x - n_u)
            offset = 0
        else:
            neighbors = graph.neighbors_u(x)
            offset = n_u
        for y in neighbors:
            y += offset
            if not removed[y]:
                deg[y] -= 1
                buckets[deg[y]].append(y)
                if deg[y] < cursor:
                    cursor = deg[y]
    return order_v, degeneracy


def vertex_order(
    graph: BipartiteGraph, strategy="degree", seed: int = 0
) -> list[int]:
    """Return a permutation of V ids according to ``strategy``.

    ``strategy`` may also be a precomputed permutation (any non-string
    sequence of V ids, e.g. one hydrated from the artifact cache); it is
    validated against the graph and returned as a list without any
    recomputation — this is how a caller that already paid for an
    ordering (cost pre-flight, artifact store) threads it through to the
    engines instead of computing it twice.

    Strategies
    ----------
    ``natural``
        Ids as-is.
    ``degree`` / ``degree_desc``
        Ascending / descending degree, ties by id (the papers' default —
        low-degree vertices root small subtrees first, so the traversed set
        grows cheaply).
    ``unilateral``
        ooMBEA-flavoured: ascending by ``(degree, size of 2-hop
        neighbourhood)`` — among equal degrees, vertices entangled with
        fewer same-side vertices come first.
    ``two_hop``
        Ascending by 2-hop neighbourhood size alone.
    ``degeneracy``
        Joint min-degree peel order over both sides (see
        :func:`degeneracy_order`).
    ``random``
        Uniform shuffle, deterministic in ``seed``.
    """
    if not isinstance(strategy, str):
        order = [int(v) for v in strategy]
        if sorted(order) != list(range(graph.n_v)):
            raise ValueError(
                "precomputed order is not a permutation of "
                f"0..{graph.n_v - 1}"
            )
        return order
    return _compute_order(graph, strategy, seed)


def _compute_order(
    graph: BipartiteGraph, strategy: str, seed: int = 0
) -> list[int]:
    """Compute a named strategy's permutation (the expensive path).

    Split out of :func:`vertex_order` so cache tests can count actual
    ordering computations separately from pass-throughs.
    """
    n = graph.n_v
    if strategy == "natural":
        return list(range(n))
    if strategy == "degree":
        return sorted(range(n), key=lambda v: (graph.degree_v(v), v))
    if strategy == "degree_desc":
        return sorted(range(n), key=lambda v: (-graph.degree_v(v), v))
    if strategy == "unilateral":
        return sorted(
            range(n),
            key=lambda v: (graph.degree_v(v), len(graph.two_hop_v(v)), v),
        )
    if strategy == "two_hop":
        return sorted(range(n), key=lambda v: (len(graph.two_hop_v(v)), v))
    if strategy == "degeneracy":
        return degeneracy_order(graph)[0]
    if strategy == "random":
        import numpy as np

        rng = np.random.default_rng(seed)
        order = list(range(n))
        rng.shuffle(order)
        return order
    raise ValueError(
        f"unknown ordering strategy {strategy!r}; expected one of {ORDER_STRATEGIES}"
    )


def rank_of(order: list[int]) -> list[int]:
    """Return the inverse permutation: ``rank[v]`` is v's position in ``order``."""
    rank = [0] * len(order)
    for i, v in enumerate(order):
        rank[v] = i
    return rank
