"""Tests specific to MBET (flags, stats, trie behaviour)."""

from __future__ import annotations

import random

import pytest

from repro import run_mbe
from repro.core.mbet import MBET, _ListQ, _TrieQ
from tests.conftest import G0_MAXIMAL, random_bigraph


class TestFeatureFlags:
    @pytest.mark.parametrize("flags", [
        {"use_trie": False},
        {"use_merge": False},
        {"use_sort": False},
        {"use_trie": False, "use_merge": False, "use_sort": False},
    ])
    def test_ablations_stay_exact(self, g0, flags):
        assert run_mbe(g0, "mbet", **flags).biclique_set() == G0_MAXIMAL

    @pytest.mark.parametrize("flags", [
        {},
        {"use_trie": False},
        {"use_merge": False},
        {"use_sort": False},
    ])
    def test_ablations_agree_on_random_graphs(self, flags):
        rng = random.Random(42)
        for _ in range(60):
            g = random_bigraph(rng)
            truth = run_mbe(g, "bruteforce").biclique_set()
            assert run_mbe(g, "mbet", **flags).biclique_set() == truth

    @pytest.mark.parametrize("order", ["natural", "degree", "degree_desc",
                                       "unilateral", "two_hop", "random"])
    def test_every_order_is_exact(self, g0, order):
        assert run_mbe(g0, "mbet", order=order).biclique_set() == G0_MAXIMAL


class TestStatsAccounting:
    def test_subtrees_counted(self, g0):
        result = run_mbe(g0, "mbet", order="natural")
        # G0 in natural order has pruned subtrees (v2 contained in v1).
        assert 0 < result.stats.subtrees <= g0.n_v

    def test_merging_reported_on_merged_graph(self):
        # v1 and v2 have identical neighbourhoods {u0, u1}; as candidates
        # in v0's subtree they share a signature and must merge.
        from repro import BipartiteGraph

        g = BipartiteGraph(
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        )
        result = run_mbe(g, "mbet", order="natural")
        assert result.stats.merged_candidates >= 1
        assert result.count == 2  # full graph x v0, {u0,u1} x {v0,v1,v2}

    def test_trie_peak_positive_when_used(self, g0):
        result = run_mbe(g0, "mbet", order="natural")
        assert result.stats.trie_peak_nodes >= 1

    def test_no_trie_stats_when_disabled(self, g0):
        result = run_mbe(g0, "mbet", use_trie=False)
        assert result.stats.trie_peak_nodes == 0
        assert result.stats.trie_pruned == 0

    def test_maximal_equals_count(self, g0):
        result = run_mbe(g0, "mbet")
        assert result.stats.maximal == result.count == 6


class TestTrieQStore:
    def test_insert_query_remove(self):
        store = _TrieQ(max_nodes=None)
        token = store.insert(0b110)
        assert store.has_superset(0b100)
        store.remove(token)
        assert not store.has_superset(0b100)

    def test_overflow_path(self):
        store = _TrieQ(max_nodes=2)
        t1 = store.insert(0b1)  # fits (root + 1 node)
        t2 = store.insert(0b111)  # rejected -> overflow
        assert t1[1] and not t2[1]
        assert store.has_superset(0b101)  # found via overflow scan
        store.remove(t2)
        assert not store.has_superset(0b101)

    def test_overflow_multiplicity(self):
        store = _TrieQ(max_nodes=1)
        t1 = store.insert(0b11)
        t2 = store.insert(0b11)
        store.remove(t1)
        assert store.has_superset(0b11)
        store.remove(t2)
        assert not store.has_superset(0b11)


class TestListQStore:
    def test_lifo_tokens(self):
        store = _ListQ()
        t1 = store.insert(0b1)
        t2 = store.insert(0b10)
        assert store.has_superset(0b10)
        store.remove(t2)
        store.remove(t1)
        assert store.masks == []

    def test_scan_counter(self):
        store = _ListQ()
        store.insert(0b1)
        store.insert(0b10)
        store.has_superset(0b1)
        assert store.checks == 2


class TestDeepSearch:
    def test_deep_chain_runs_recursively_and_restores_the_limit(self):
        # a nested-neighbourhood chain drives the search depth to n; the
        # driver raises the recursion limit for the run and restores it
        import sys

        from repro import BipartiteGraph

        n = 400
        edges = [(u, v) for v in range(n) for u in range(v, n)]
        g = BipartiteGraph(edges, n_u=n, n_v=n)
        limit = sys.getrecursionlimit()
        result = run_mbe(g, "mbet", collect=False, order="natural")
        assert sys.getrecursionlimit() == limit
        assert result.count == n  # nested chain: one biclique per level


class TestMBETConstruction:
    def test_default_flags(self):
        algo = MBET()
        assert algo.use_trie and algo.use_merge and algo.use_sort
        assert algo.trie_max_nodes is None

    def test_name_registered(self):
        assert MBET.name == "mbet"
