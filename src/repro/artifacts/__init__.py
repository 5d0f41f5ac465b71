"""Content-addressed preprocess-once artifact cache.

Graphs, orderings, stats, root counts, and completed enumeration
results are each computed once per graph *content* (SHA-256 of
canonical bytes) and reused across every entry point — ``repro run``,
the serve admission path, cluster slice planning, benchmarks.  See
``docs/artifacts.md`` for the store layout and failure matrix.
"""

from __future__ import annotations

import os

from repro.artifacts.kinds import (
    cached_cost,
    cached_root_count,
    cached_stats,
    cached_vertex_order,
    decode_graph,
    encode_graph,
    get_cached_result,
    graph_key,
    load_graph_cached,
    peek_graph_key,
    put_cached_result,
    result_fingerprint,
    source_key,
)
from repro.artifacts.store import (
    DEFAULT_MAX_BYTES,
    ArtifactEntry,
    ArtifactStore,
    FileLock,
)

__all__ = [
    "ArtifactEntry",
    "ArtifactStore",
    "DEFAULT_MAX_BYTES",
    "FileLock",
    "cached_cost",
    "cached_root_count",
    "cached_stats",
    "cached_vertex_order",
    "decode_graph",
    "default_artifacts_dir",
    "encode_graph",
    "get_cached_result",
    "graph_key",
    "load_graph_cached",
    "open_store",
    "peek_graph_key",
    "put_cached_result",
    "result_fingerprint",
    "source_key",
]

#: Environment override for the default store location.
ENV_DIR = "REPRO_ARTIFACTS_DIR"


def default_artifacts_dir() -> str:
    """Resolve the default store directory.

    ``$REPRO_ARTIFACTS_DIR`` wins; otherwise the XDG-ish
    ``~/.cache/repro-mbe/artifacts``.
    """
    env = os.environ.get(ENV_DIR)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-mbe", "artifacts"
    )


def open_store(
    root: str | os.PathLike[str] | None = None, **kwargs
) -> ArtifactStore:
    """Open (creating if needed) the store at ``root`` or the default dir."""
    return ArtifactStore(root or default_artifacts_dir(), **kwargs)
