"""Benchmark inputs and their reference answers.

Zoo graphs are stored in ``data/`` as gzipped edge lists (written once by
``make_data.py``), so a change to the program's own generators cannot change
what the benchmark measures.  Off-zoo graphs come from this module's seeded
generators.  Reference answers are computed with the ``imbea`` baseline
engine, which shares no code with the MBET engines the benchmark judges;
the zoo references are stored beside the data.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from pathlib import Path

from common import BENCH_DIR, digest_pairs

DATA_DIR = BENCH_DIR / "data"
REFS_PATH = DATA_DIR / "refs.json"

#: the engine reference answers come from
REFERENCE_ENGINE = "imbea"


def edge_text(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def load_zoo(name: str, dest: Path) -> tuple[Path, dict]:
    """Write zoo graph ``name`` to ``dest``; returns (path, reference).

    The stored reference is bound to the sha256 of the edge text, so a
    damaged data file is refused instead of measured.
    """
    refs = json.loads(REFS_PATH.read_text())
    text = gzip.decompress((DATA_DIR / f"{name}.txt.gz").read_bytes())
    entry = refs[name]
    if hashlib.sha256(text).hexdigest() != entry["sha256"]:
        raise RuntimeError(f"data/{name}.txt.gz does not match refs.json")
    dest.write_bytes(text)
    return dest, {"count": entry["count"], "digest": entry["digest"]}


def random_edges(rng: random.Random, n_u: int, n_v: int, p: float):
    return [(u, v) for u in range(n_u) for v in range(n_v) if rng.random() < p]


def planted_edges(rng: random.Random, n_u: int, n_v: int, n_blocks: int,
                  block: tuple[int, int], noise: int):
    """Overlapping complete blocks plus uniform noise edges."""
    edges = set()
    lo, hi = block
    for _ in range(n_blocks):
        us = rng.sample(range(n_u), rng.randint(lo, hi))
        vs = rng.sample(range(n_v), rng.randint(lo, hi))
        edges.update((u, v) for u in us for v in vs)
    for _ in range(noise):
        edges.add((rng.randrange(n_u), rng.randrange(n_v)))
    return sorted(edges)


def reference(edges) -> dict:
    """Count and digest of the maximal bicliques of ``edges`` (imbea)."""
    from repro.bigraph.graph import BipartiteGraph
    from repro.core.base import run_mbe

    result = run_mbe(BipartiteGraph(list(edges)), REFERENCE_ENGINE)
    if not result.complete:
        raise RuntimeError("reference run did not complete")
    return digest_pairs((b.left, b.right) for b in result.bicliques)


def planned_engine(path: Path) -> dict:
    """The planner's choice for one input file (for the environment stamp)."""
    from repro.bigraph.io import read_edge_list
    from repro.plan import build_plan

    plan = build_plan(read_edge_list(str(path)))
    return {"engine": plan.chosen.engine,
            "predicted_s": plan.chosen.predicted_seconds}
