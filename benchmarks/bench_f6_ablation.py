"""R-F6: ablation of MBET's techniques.

One benchmark per disabled technique on the yg stand-in.  Expected shape:
full mbet (adaptive store) is the fastest column; forced-trie pays the
prefix tree in subproblems below the crossover, w/o-merge pays on
repeated signatures, w/o-sort on branch ordering.
Full table: ``python -m repro experiments --run R-F6``.
"""

from __future__ import annotations

import pytest

from repro import datasets, run_mbe

VARIANTS = [
    ("full", {}),
    ("forced-trie", {"use_trie": True}),
    ("no-trie", {"use_trie": False}),
    ("no-merge", {"use_merge": False}),
    ("no-sort", {"use_sort": False}),
]


@pytest.mark.parametrize("label,flags", VARIANTS, ids=[v[0] for v in VARIANTS])
def bench_ablation(benchmark, run_once, label, flags):
    graph = datasets.load("yg")
    result = run_once(run_mbe, graph, "mbet", collect=False, **flags)
    assert result.count == datasets.spec("yg").approx_bicliques
    benchmark.extra_info["nodes"] = result.stats.nodes
    benchmark.extra_info["non_maximal"] = result.stats.non_maximal
