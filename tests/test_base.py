"""Tests for the enumeration framework (Biclique, stats, registry, run_mbe)."""

from __future__ import annotations

import pytest

from repro import BipartiteGraph, Biclique, RunBudget, run_mbe
from repro.core.base import (
    ALGORITHMS,
    EnumerationStats,
    MBEAlgorithm,
    available_algorithms,
    register,
)


class TestBiclique:
    def test_make_canonicalizes(self):
        b = Biclique.make([3, 1], (2, 0))
        assert b.left == (1, 3)
        assert b.right == (0, 2)

    def test_swap(self):
        b = Biclique.make([1], [2, 3])
        assert b.swap() == Biclique.make([2, 3], [1])

    def test_n_edges(self):
        assert Biclique.make([1, 2], [3, 4, 5]).n_edges == 6

    def test_hashable_and_ordered(self):
        a = Biclique.make([1], [1])
        b = Biclique.make([1], [2])
        assert a < b
        assert len({a, b, Biclique.make([1], [1])}) == 2


class TestEnumerationStats:
    def test_starts_at_zero(self):
        stats = EnumerationStats()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_merge_sums_and_maxes(self):
        a, b = EnumerationStats(), EnumerationStats()
        a.nodes, b.nodes = 3, 4
        a.trie_peak_nodes, b.trie_peak_nodes = 10, 7
        a.merge(b)
        assert a.nodes == 7
        assert a.trie_peak_nodes == 10

    def test_repr_shows_nonzero_only(self):
        stats = EnumerationStats()
        stats.nodes = 5
        assert "nodes=5" in repr(stats)
        assert "maximal" not in repr(stats)


class TestLimitsValidation:
    def test_negative_max_rejected(self):
        with pytest.raises(ValueError):
            RunBudget(max_bicliques=-1).validate()

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            RunBudget(time_limit=0).validate()

    def test_defaults_valid(self):
        RunBudget().validate()


class TestRegistry:
    def test_known_algorithms_registered(self):
        for name in ("naive", "mbea", "imbea", "pmbe", "oombea", "mbet",
                     "mbetm", "parallel", "bruteforce"):
            assert name in ALGORITHMS

    def test_available_sorted(self):
        names = available_algorithms()
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        class Dup(MBEAlgorithm):
            name = "mbet"

            def _enumerate(self, graph, report, stats):
                pass

        with pytest.raises(ValueError, match="duplicate"):
            register(Dup)

    def test_unnamed_registration_rejected(self):
        class NoName(MBEAlgorithm):
            def _enumerate(self, graph, report, stats):
                pass

        with pytest.raises(ValueError, match="unique name"):
            register(NoName)


class TestRunMBE:
    def test_unknown_algorithm(self, g0):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_mbe(g0, "no-such-algo")

    def test_collect_false_drops_results(self, g0):
        result = run_mbe(g0, "mbet", collect=False)
        assert result.bicliques is None
        assert result.count == 6
        with pytest.raises(ValueError):
            result.biclique_set()

    def test_result_metadata(self, g0):
        result = run_mbe(g0, "mbea")
        assert result.algorithm == "mbea"
        assert result.complete
        assert result.elapsed >= 0
        assert result.stats.maximal == result.count == 6

    def test_options_forwarded(self, g0):
        result = run_mbe(g0, "mbet", order="random", seed=12)
        assert result.count == 6

    def test_empty_graph(self):
        result = run_mbe(BipartiteGraph([]), "mbet")
        assert result.count == 0
        assert result.bicliques == []

    def test_edgeless_vertices_only(self):
        g = BipartiteGraph([], n_u=4, n_v=4)
        assert run_mbe(g, "mbea").count == 0

    def test_single_edge(self):
        g = BipartiteGraph([(0, 0)])
        result = run_mbe(g, "mbet")
        assert result.biclique_set() == {Biclique.make([0], [0])}

    def test_complete_bipartite_has_one_biclique(self):
        g = BipartiteGraph([(u, v) for u in range(4) for v in range(3)])
        for algo in ("naive", "mbea", "mbet"):
            result = run_mbe(g, algo)
            assert result.biclique_set() == {
                Biclique.make(range(4), range(3))
            }


class TestLimits:
    def test_max_bicliques_stops_early(self, g0):
        result = run_mbe(g0, "mbet", max_bicliques=3)
        assert result.count == 3
        assert not result.complete
        assert len(result.bicliques) == 3

    def test_max_bicliques_zero(self, g0):
        # A zero budget stops at the first report.
        result = run_mbe(g0, "mbet", max_bicliques=0)
        assert not result.complete
        assert result.count <= 1

    def test_generous_limit_completes(self, g0):
        result = run_mbe(g0, "mbet", max_bicliques=1000)
        assert result.complete
        assert result.count == 6

    def test_time_limit_on_large_run(self):
        from repro import planted_bicliques

        g = planted_bicliques(300, 200, 150, (2, 6), (2, 6), 500, seed=3)
        result = run_mbe(g, "naive", collect=False, time_limit=0.05)
        assert not result.complete
        full = run_mbe(g, "mbet", collect=False)
        assert result.count < full.count
