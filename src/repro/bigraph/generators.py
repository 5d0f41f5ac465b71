"""Synthetic bipartite-graph generators.

The evaluation in the MBE literature runs on public KONECT/SNAP datasets
whose difficulty is governed by two structural properties: heavy-tailed
degree distributions (which concentrate work in a few dense subtrees) and
overlapping community blocks (which drive the maximal-biclique count).
These generators control both directly, so the dataset zoo
(:mod:`repro.datasets`) can reproduce the *shape* of the public datasets at
laptop scale without network access.

All generators are deterministic in their ``seed`` argument.
"""

from __future__ import annotations

from repro.bigraph.builder import GraphBuilder
from repro.bigraph.graph import BipartiteGraph


def random_bipartite(
    n_u: int, n_v: int, p: float, seed: int = 0
) -> BipartiteGraph:
    """Erdős–Rényi bipartite graph: each of the ``n_u * n_v`` pairs is an
    edge independently with probability ``p``.

    Sampled by drawing the edge count from Binomial(n_u * n_v, p) and then
    choosing that many distinct cells, which is O(|E|) rather than
    O(n_u * n_v).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n_u < 0 or n_v < 0:
        raise ValueError("side sizes must be non-negative")
    import numpy as np

    rng = np.random.default_rng(seed)
    cells = n_u * n_v
    if cells == 0 or p == 0.0:
        return BipartiteGraph([], n_u=n_u, n_v=n_v)
    n_edges = int(rng.binomial(cells, p))
    flat = rng.choice(cells, size=n_edges, replace=False)
    edges = [(int(f) // n_v, int(f) % n_v) for f in flat]
    return BipartiteGraph(edges, n_u=n_u, n_v=n_v)


def powerlaw_bipartite(
    n_u: int,
    n_v: int,
    n_edges: int,
    exponent: float = 2.0,
    seed: int = 0,
) -> BipartiteGraph:
    """Power-law bipartite graph via a weighted configuration model.

    Both sides get Zipf-like attachment weights ``rank^(-1/(exponent-1))``;
    ``n_edges`` endpoint pairs are drawn from the product distribution and
    deduplicated, so the realized edge count is at most ``n_edges``.  The
    result has the hub-dominated degree skew of the real datasets, which is
    what stresses load distribution across enumeration subtrees.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    if n_u <= 0 or n_v <= 0:
        raise ValueError("side sizes must be positive")
    if n_edges < 0:
        raise ValueError("edge count must be non-negative")
    import numpy as np

    rng = np.random.default_rng(seed)
    alpha = 1.0 / (exponent - 1.0)

    def weights(n: int) -> np.ndarray:
        w = (np.arange(1, n + 1, dtype=np.float64)) ** (-alpha)
        return w / w.sum()

    us = rng.choice(n_u, size=n_edges, p=weights(n_u))
    vs = rng.choice(n_v, size=n_edges, p=weights(n_v))
    builder = GraphBuilder()
    for u, v in zip(us, vs):
        builder.add_edge(int(u), int(v))
    return builder.build(n_u=n_u, n_v=n_v)


def planted_bicliques(
    n_u: int,
    n_v: int,
    n_blocks: int,
    block_u: tuple[int, int] = (2, 6),
    block_v: tuple[int, int] = (2, 6),
    noise_edges: int = 0,
    seed: int = 0,
) -> BipartiteGraph:
    """Union of ``n_blocks`` random complete bipartite blocks plus noise.

    Overlapping blocks interact to create many maximal bicliques (the
    blocks themselves are bicliques but not necessarily maximal once they
    overlap), which is the regime where prefix-tree node checking pays off.

    ``block_u`` / ``block_v`` are inclusive ``(lo, hi)`` size ranges for the
    two sides of each planted block.
    """
    if n_u <= 0 or n_v <= 0:
        raise ValueError("side sizes must be positive")
    for lo, hi in (block_u, block_v):
        if not 1 <= lo <= hi:
            raise ValueError("block size ranges must satisfy 1 <= lo <= hi")
    import numpy as np

    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for _ in range(n_blocks):
        su = int(rng.integers(block_u[0], block_u[1] + 1))
        sv = int(rng.integers(block_v[0], block_v[1] + 1))
        su = min(su, n_u)
        sv = min(sv, n_v)
        us = rng.choice(n_u, size=su, replace=False)
        vs = rng.choice(n_v, size=sv, replace=False)
        builder.add_biclique((int(u) for u in us), (int(v) for v in vs))
    for _ in range(noise_edges):
        builder.add_edge(int(rng.integers(n_u)), int(rng.integers(n_v)))
    return builder.build(n_u=n_u, n_v=n_v)


def subsample_edges(
    graph: BipartiteGraph, fraction: float, seed: int = 0
) -> BipartiteGraph:
    """Keep a uniform random ``fraction`` of edges (side sizes preserved).

    Drives the |E|-scalability experiment: the same graph is measured at
    20%, 40%, ... 100% of its edges.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    edges = list(graph.edges())
    if fraction == 1.0:
        return graph
    import numpy as np

    rng = np.random.default_rng(seed)
    keep = int(round(len(edges) * fraction))
    idx = rng.choice(len(edges), size=keep, replace=False)
    kept = [edges[int(i)] for i in idx]
    return BipartiteGraph(kept, n_u=graph.n_u, n_v=graph.n_v)
