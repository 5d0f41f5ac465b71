"""Serialization of biclique collections.

Format: one biclique per line, left ids comma-separated, a tab, right ids
comma-separated — the same format ``repro-mbe run -o`` writes, so saved
results round-trip through :func:`read_bicliques` and can be audited later
with ``repro-mbe verify``.

:class:`BicliqueWriter` is the streaming face of the same format: one
flushed line per :meth:`~BicliqueWriter.write`, rolled back on failure,
so a process killed mid-run leaves at most one torn trailing line (which
:func:`read_bicliques` can be told to tolerate) — the log contract of
:mod:`repro.runtime.jsonlog`.  The serving layer's memory watchdog and
the cluster coordinator spool through it.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.core.base import Biclique
from repro.runtime import jsonlog


class BicliqueWriter:
    """Stream bicliques to a file, one flushed line per result.

    Tracks ``count`` and ``bytes_written`` so callers (the serve memory
    watchdog) can bound spool growth without stat-ing the file.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._log = jsonlog.Appender(self.path, "w")
        self.count = 0
        self.bytes_written = 0

    def write(self, b: Biclique) -> None:
        line = (
            ",".join(map(str, b.left)) + "\t" + ",".join(map(str, b.right)) + "\n"
        )
        # a failure is rolled back and re-raised, so a caller that
        # survives it (or a replay that count-checks this spool) reads
        # only whole records
        self._log.append(line)
        self.count += 1
        self.bytes_written += len(line)

    def write_all(self, bicliques: Iterable[Biclique]) -> int:
        for b in bicliques:
            self.write(b)
        return self.count

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "BicliqueWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_bicliques(
    bicliques: Iterable[Biclique], path: str | os.PathLike[str]
) -> int:
    """Write bicliques as ``u1,u2<TAB>v1,v2`` lines; returns count written."""
    count = 0
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for b in bicliques:
            left = ",".join(map(str, b.left))
            right = ",".join(map(str, b.right))
            handle.write(f"{left}\t{right}\n")
            count += 1
    return count


def read_bicliques(
    path: str | os.PathLike[str], tolerate_torn_tail: bool = False
) -> list[Biclique]:
    """Read a biclique file written by :func:`write_bicliques`.

    ``tolerate_torn_tail=True`` drops a malformed *final* line instead of
    raising — the signature a kill mid-:meth:`BicliqueWriter.write`
    leaves behind.  Malformed lines anywhere else always raise.
    """
    path = os.fspath(path)
    return [
        b
        for _, b in jsonlog.read_lines(
            path, _parse_line, ValueError, tolerate_torn_tail
        )
        if b is not None
    ]


def _parse_line(line: str) -> Biclique | None:
    """One ``left<TAB>right`` line; None for a ``#`` comment."""
    line = line.strip()
    if line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError(f"expected 'left<TAB>right', got {line!r}")
    try:
        left = [int(x) for x in parts[0].split(",") if x]
        right = [int(x) for x in parts[1].split(",") if x]
    except ValueError:
        raise ValueError("non-integer vertex id") from None
    if not left or not right:
        raise ValueError("empty biclique side")
    return Biclique.make(left, right)
