"""Coordinator-side journal: the durable truth of a federated job.

Appends, torn-tail tolerance, tail repair and write rollback follow the
one log contract in :mod:`repro.runtime.jsonlog`; damage other than a
torn final line raises :class:`ClusterJournalError` with ``path:line``
context.

Record shapes::

    {"type": "cluster", "event": "planned", "fingerprint": ...,
     "n_roots": N, "slices": [SliceSpec.as_dict(), ...], "t": ...}
    {"type": "slice", "event": "dispatched" | "completed" | "lost" |
     "failed" | "resplit" | "discarded", "slice_id": ..., "t": ..., ...}
    {"type": "cluster", "event": "done" | "interrupted" | "failed",
     "count": ..., "t": ...}

Replay order matters: a restarted coordinator re-applies ``completed``
events through the same :class:`~repro.cluster.slices.RangeCoverage`
arbiter that accepted them live, so the resumed merge state is exactly
the pre-crash one (duplicates discarded then stay discarded now).
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.runtime import jsonlog

__all__ = ["ClusterJournal", "ClusterJournalError", "load_cluster_journal"]


class ClusterJournalError(ValueError):
    """Raised on corrupt (non-torn-tail) coordinator journal content."""


def load_cluster_journal(
    path: str | os.PathLike[str],
) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    """Replay a coordinator journal into ``(plan, events)``.

    ``plan`` is the ``planned`` record (or None for a virgin journal);
    ``events`` is every slice/terminal record after it, in append order.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return None, []
    plan: dict[str, Any] | None = None
    events: list[dict[str, Any]] = []
    for lineno, rec in jsonlog.read_objects(
        path, ClusterJournalError, "journal record"
    ):
        if rec.get("type") not in ("cluster", "slice"):
            raise ClusterJournalError(
                f"{path}:{lineno}: record is not a cluster/slice event"
            )
        if rec.get("type") == "cluster" and rec.get("event") == "planned":
            if plan is not None:
                raise ClusterJournalError(
                    f"{path}:{lineno}: second 'planned' record"
                )
            if not isinstance(rec.get("slices"), list):
                raise ClusterJournalError(
                    f"{path}:{lineno}: planned record missing 'slices'"
                )
            plan = rec
        else:
            events.append(rec)
    return plan, events


class ClusterJournal:
    """Append-only writer plus the recovery view over one journal file."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        #: replayed (plan, events) from a previous coordinator life
        self.recovered_plan, self.recovered_events = load_cluster_journal(
            self.path
        )
        jsonlog.repair_tail(self.path)
        self._log = jsonlog.Appender(self.path)

    @property
    def write_errors(self) -> int:
        """Appends lost to OSError (disk full, I/O error)."""
        return self._log.write_errors

    def _append(self, record: dict[str, Any]) -> None:
        # the journal only speeds up a *restart* — replay re-runs any
        # slice whose records are missing or whose spool fails its count
        # check — so a failed append is counted and swallowed, never
        # allowed to kill a healthy run
        try:
            self._log.append(jsonlog.dumps(record))
        except OSError:
            pass

    def record_plan(
        self,
        fingerprint: str,
        n_roots: int,
        slices: list[dict[str, Any]],
    ) -> None:
        self._append({
            "type": "cluster", "event": "planned",
            "t": round(time.time(), 3),
            "fingerprint": fingerprint, "n_roots": n_roots,
            "slices": slices,
        })

    def record_slice(self, event: str, slice_id: str, **extra: Any) -> None:
        self._append({
            "type": "slice", "event": event, "slice_id": slice_id,
            "t": round(time.time(), 3), **extra,
        })

    def record_terminal(self, event: str, **extra: Any) -> None:
        self._append({
            "type": "cluster", "event": event, "t": round(time.time(), 3),
            **extra,
        })

    def close(self) -> None:
        self._log.close()
