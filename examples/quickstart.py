"""Quickstart: enumerate maximal bicliques of a small bipartite graph.

Run with:  python examples/quickstart.py

Walks the public API end to end: build a graph, run the prefix-tree
algorithm (MBET), inspect results and counters, compare against a baseline,
and verify the result set against the definition.
"""

from repro import (
    BipartiteGraph,
    is_maximal_biclique,
    run_mbe,
    verify_result,
)


def main() -> None:
    # The worked example of the paper lineage: 5 users x 4 products.
    #   u0..u4 are customers, v0..v3 are products; an edge is a purchase.
    graph = BipartiteGraph(
        [
            (0, 0), (1, 0),                  # v0 bought by u0, u1
            (0, 1), (1, 1), (2, 1), (3, 1),  # v1 bought by u0..u3
            (0, 2), (1, 2), (3, 2),          # v2 bought by u0, u1, u3
            (1, 3), (3, 3), (4, 3),          # v3 bought by u1, u3, u4
        ]
    )
    print(f"graph: {graph}")

    # Enumerate every maximal biclique with the prefix-tree algorithm.
    result = run_mbe(graph, algorithm="mbet")
    print(f"\n{result.count} maximal bicliques "
          f"(in {result.elapsed * 1000:.2f} ms):")
    for b in sorted(result.bicliques):
        print(f"  customers {list(b.left)} x products {list(b.right)}")
        assert is_maximal_biclique(graph, b.left, b.right)

    # The run's internal counters (what the benchmarks aggregate).
    stats = result.stats
    print(f"\nenumeration nodes:     {stats.nodes}")
    print(f"maximality checks:     {stats.checks}")
    print(f"non-maximal rejected:  {stats.non_maximal}")
    print(f"candidates merged:     {stats.merged_candidates}")
    # a graph this small stays below TRIE_MIN_SIZE: every subproblem
    # scans a list, so the prefix tree stays empty
    print(f"trie subproblems:      {stats.trie_subtrees} of {stats.subtrees}")
    print(f"prefix-tree peak size: {stats.trie_peak_nodes} nodes")

    # Every registered algorithm returns the same set.
    baseline = run_mbe(graph, algorithm="mbea")
    assert baseline.biclique_set() == result.biclique_set()
    print("\nbaseline MBEA agrees with MBET")

    # Audit against the definition (raises on any violation).
    verify_result(graph, result.bicliques, expected=baseline.bicliques)
    print("result set verified: every biclique is maximal, none missing")


if __name__ == "__main__":
    main()
