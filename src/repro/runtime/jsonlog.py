"""The one crash-safe append-only line log behind every durable record.

The parallel checkpoint, the serve and cluster journals and the biclique
spools share one contract, implemented here once:

* :class:`Appender` — append only, one line per record, flushed, under a
  lock, through :mod:`repro.chaos.fs`; an append failing with ``OSError``
  is truncated back to the last good record, counted in
  ``write_errors`` and re-raised (swallowing it is the caller's policy);
* :func:`read_lines` / :func:`read_objects` — an unparseable *last* line
  is a torn write and is dropped; any other damage raises the caller's
  error class with ``path:line``;
* :func:`repair_tail` — on reopen, truncate a torn tail or
  newline-terminate a complete final record.

Nothing here fsyncs; atomic whole-file rewrites (checkpoint creation,
journal compaction) stay with their owners and their durability choices.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from typing import IO, Any, Callable, Iterator

from repro.chaos import fs as chaos_fs

__all__ = ["Appender", "dumps", "read_lines", "read_objects", "repair_tail"]


def dumps(record: dict[str, Any]) -> str:
    """One compact JSONL line, newline included."""
    return json.dumps(record, separators=(",", ":")) + "\n"


def read_lines(
    path: str,
    parse: Callable[[str], Any],
    error: type[Exception],
    tolerate_torn_tail: bool = True,
) -> Iterator[tuple[int, Any]]:
    """Yield ``(lineno, parse(line))`` for every non-blank line of ``path``.

    A ``ValueError`` from ``parse`` on the last such line is a torn write
    (dropped when ``tolerate_torn_tail``); elsewhere it raises ``error``.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    last = len(lines)
    while last and not lines[last - 1].strip():
        last -= 1
    for lineno, line in enumerate(lines[:last], start=1):
        if not line.strip():
            continue
        try:
            record = parse(line)
        except ValueError as exc:
            if tolerate_torn_tail and lineno == last:
                return
            raise error(f"{path}:{lineno}: {exc}") from exc
        yield lineno, record


def read_objects(
    path: str, error: type[Exception], what: str
) -> Iterator[tuple[int, dict[str, Any]]]:
    """:func:`read_lines` over a JSONL file whose records are objects."""

    def parse(line: str) -> Any:
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"malformed {what} mid-file (not valid JSON: {exc.msg})"
            ) from None

    for lineno, record in read_lines(path, parse, error):
        if not isinstance(record, dict):
            # corruption even at the tail: a torn write of an object can
            # never parse as a bare scalar or array
            raise error(
                f"{path}:{lineno}: {what} is not a JSON object "
                f"(got {type(record).__name__})"
            )
        yield lineno, record


def repair_tail(path: str) -> None:
    """Make a JSONL log appendable again after a mid-write kill: drop a
    torn final record, or end a complete one with its missing newline so
    the next append does not fuse two records."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return
    with open(path, "rb+") as handle:
        data = handle.read()
        if data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except ValueError:
            handle.truncate(cut)
        else:
            handle.write(b"\n")


class Appender:
    """Locked, flushed, rolled-back-on-failure line appends to one file.

    ``mode`` is ``"a"`` to continue a log or ``"w"`` to start one.  The
    lock is re-entrant so an owner can hold it across several calls.
    """

    def __init__(self, path: str, mode: str = "a"):
        self.path = path
        self.lock = threading.RLock()
        self._handle: IO[str] | None = chaos_fs.open(
            path, mode, encoding="utf-8"
        )
        #: appends that failed with OSError (disk full, I/O error)
        self.write_errors = 0

    def append(self, line: str) -> None:
        """Write and flush one line; on ``OSError`` roll back and re-raise."""
        with self.lock:
            handle = self._handle
            assert handle is not None, f"{self.path} is closed"
            pos = handle.tell()
            try:
                handle.write(line)
                handle.flush()
            except OSError:
                # a torn half-record would poison every later append
                # (readers only forgive a torn FINAL line): truncate back
                # to the last good record before surfacing the failure.
                # Truncating leaves the position past the cut; seek back
                # so a "w" handle does not leave a zero-filled gap
                self.write_errors += 1
                with contextlib.suppress(OSError):
                    handle.flush()
                with contextlib.suppress(OSError):
                    handle.truncate(pos)
                    handle.seek(pos)
                raise

    def tell(self) -> int:
        assert self._handle is not None, f"{self.path} is closed"
        return self._handle.tell()

    def flush(self) -> None:
        assert self._handle is not None, f"{self.path} is closed"
        self._handle.flush()

    def reopen(self) -> None:
        """Continue appending to whatever file now sits at ``path``."""
        with self.lock:
            self._handle = chaos_fs.open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self.lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
