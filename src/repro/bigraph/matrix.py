"""Biadjacency-matrix and NetworkX interoperability.

Biclustering users arrive with a binary matrix, network scientists with a
NetworkX graph; both conversions are lossless in the directions the data
allows (a matrix fixes the side sizes; a NetworkX bipartite graph fixes a
node partition).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bigraph.graph import BipartiteGraph

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def from_biadjacency(matrix: np.ndarray) -> BipartiteGraph:
    """Build a graph from a 2-D boolean/numeric biadjacency matrix.

    Rows become U vertices, columns V vertices; any non-zero entry is an
    edge.  Use this to binarize-and-mine expression matrices:

    >>> import numpy as np
    >>> g = from_biadjacency(np.array([[1, 0], [1, 1]]))
    >>> g.n_edges
    3
    """
    import numpy as np

    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    rows, cols = np.nonzero(arr)
    return BipartiteGraph(
        list(zip(map(int, rows), map(int, cols))),
        n_u=arr.shape[0],
        n_v=arr.shape[1],
    )


def to_biadjacency(graph: BipartiteGraph, dtype=bool) -> np.ndarray:
    """Return the graph's ``|U| x |V|`` biadjacency matrix."""
    import numpy as np

    out = np.zeros((graph.n_u, graph.n_v), dtype=dtype)
    for u, v in graph.edges():
        out[u, v] = 1
    return out


def from_networkx(nx_graph, u_nodes=None) -> tuple[BipartiteGraph, dict, dict]:
    """Convert a NetworkX bipartite graph.

    ``u_nodes`` names the U side; when omitted, nodes with attribute
    ``bipartite == 0`` are used (NetworkX's own convention).  Returns
    ``(graph, u_map, v_map)`` mapping original node labels to dense ids.
    """
    if u_nodes is None:
        u_nodes = [n for n, d in nx_graph.nodes(data=True)
                   if d.get("bipartite") == 0]
        if not u_nodes and nx_graph.number_of_nodes():
            raise ValueError(
                "no nodes carry bipartite=0; pass u_nodes explicitly"
            )
    u_set = set(u_nodes)
    v_nodes = [n for n in nx_graph.nodes if n not in u_set]
    u_map = {n: i for i, n in enumerate(sorted(u_set, key=repr))}
    v_map = {n: i for i, n in enumerate(sorted(v_nodes, key=repr))}
    edges = []
    for a, b in nx_graph.edges():
        if a in u_set and b in v_map:
            edges.append((u_map[a], v_map[b]))
        elif b in u_set and a in v_map:
            edges.append((u_map[b], v_map[a]))
        else:
            raise ValueError(f"edge ({a!r}, {b!r}) is not across the partition")
    return (
        BipartiteGraph(sorted(set(edges)), n_u=len(u_map), n_v=len(v_map)),
        u_map,
        v_map,
    )


def to_networkx(graph: BipartiteGraph):
    """Return a ``networkx.Graph`` with the standard bipartite attributes.

    U vertices become nodes ``("u", i)`` with ``bipartite=0``; V vertices
    ``("v", j)`` with ``bipartite=1``.
    """
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from((("u", i) for i in range(graph.n_u)), bipartite=0)
    out.add_nodes_from((("v", j) for j in range(graph.n_v)), bipartite=1)
    out.add_edges_from((("u", u), ("v", v)) for u, v in graph.edges())
    return out
