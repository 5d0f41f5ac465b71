"""One contract test for the crash-safe append-only logs.

The checkpoint, the serve job journal, the cluster coordinator journal
and the biclique spools all go through :mod:`repro.runtime.jsonlog`.
Each case below runs against every format through its public writer and
loader, so a log that drifts from the shared contract fails here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro import Biclique
from repro.chaos import FaultRule, FaultSchedule
from repro.chaos import fs as chaos_fs
from repro.cluster.journal import (
    ClusterJournal,
    ClusterJournalError,
    load_cluster_journal,
)
from repro.core.io_results import BicliqueWriter, read_bicliques
from repro.runtime import CheckpointError, CheckpointWriter, load_checkpoint
from repro.serve.jobs import Job, JobSpec
from repro.serve.journal import JobJournal, JournalError, load_journal

FINGERPRINT = {"n": 1}


@dataclass
class LogFormat:
    name: str
    filename: str
    error: type[Exception]
    #: open a writer; ``resume`` continues the log already on disk
    open: Callable[[Any, bool], Any]
    append: Callable[[Any, int], None]
    #: record ids in file order, as the format's loader sees them
    load: Callable[[Any], list[int]]
    write_errors: Callable[[Any], int]
    #: a failed append surfaces to the caller (else it is swallowed)
    raises: bool
    #: lines are JSON objects (the spool is tab-separated text)
    json: bool = True


def _open_checkpoint(path, resume):
    carried = list(load_checkpoint(path).records.values()) if resume else None
    return CheckpointWriter(path, FINGERPRINT, resume_records=carried)


def _open_spool(path, resume):
    carried = read_bicliques(path, tolerate_torn_tail=True) if resume else []
    writer = BicliqueWriter(path)
    writer.write_all(carried)
    return writer


FORMATS = [
    LogFormat(
        "checkpoint", "run.ckpt", CheckpointError,
        open=_open_checkpoint,
        append=lambda w, i: w.record((i, 0, 1), i, {}, None),
        load=lambda p: [r["task"][0] for r in load_checkpoint(p).records.values()],
        write_errors=lambda w: w.write_errors,
        raises=False,
    ),
    LogFormat(
        "serve_journal", "journal.jsonl", JournalError,
        open=lambda p, resume: JobJournal(p),
        append=lambda w, i: w.record_event(
            Job(job_id=f"j-{i}", spec=JobSpec(edges=[[0, 0]])), "submitted"
        ),
        load=lambda p: [int(j.split("-")[1]) for j in load_journal(p)],
        write_errors=lambda w: w.write_errors,
        raises=True,
    ),
    LogFormat(
        "cluster_journal", "coord.jsonl", ClusterJournalError,
        open=lambda p, resume: ClusterJournal(p),
        append=lambda w, i: w.record_slice("completed", f"s-{i}"),
        load=lambda p: [
            int(e["slice_id"].split("-")[1]) for e in load_cluster_journal(p)[1]
        ],
        write_errors=lambda w: w.write_errors,
        raises=False,
    ),
    LogFormat(
        "spool", "slice.spool", ValueError,
        open=_open_spool,
        append=lambda w, i: w.write(Biclique.make([i], [i + 1])),
        load=lambda p: [
            b.left[0] for b in read_bicliques(p, tolerate_torn_tail=True)
        ],
        write_errors=lambda w: w._log.write_errors,
        raises=True,
        json=False,
    ),
]


@pytest.fixture(params=FORMATS, ids=[f.name for f in FORMATS])
def fmt(request):
    return request.param


def _write(fmt: LogFormat, path, ids) -> None:
    writer = fmt.open(path, False)
    for i in ids:
        fmt.append(writer, i)
    writer.close()


def _lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def test_torn_final_line_dropped(fmt, tmp_path):
    path = tmp_path / fmt.filename
    _write(fmt, path, range(3))
    last = _lines(path)[-1]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(last[: len(last) // 2])  # a kill mid-write
    assert fmt.load(path) == [0, 1, 2]


def test_midfile_garbage_raises_with_line(fmt, tmp_path):
    path = tmp_path / fmt.filename
    _write(fmt, path, range(3))
    lines = _lines(path)
    lines.insert(2, "@@ not a record @@\n")
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(fmt.error, match=f"{fmt.filename}:3:"):
        fmt.load(path)


JSON_FORMATS = [f for f in FORMATS if f.json]


@pytest.mark.parametrize("fmt", JSON_FORMATS, ids=[f.name for f in JSON_FORMATS])
def test_non_object_record_raises_even_at_the_tail(fmt, tmp_path):
    path = tmp_path / fmt.filename
    _write(fmt, path, range(2))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("[1, 2, 3]\n")
    with pytest.raises(fmt.error, match="not a JSON object"):
        fmt.load(path)


def test_missing_final_newline_repaired(fmt, tmp_path):
    path = tmp_path / fmt.filename
    _write(fmt, path, range(2))
    path.write_text(path.read_text(encoding="utf-8").rstrip("\n"),
                    encoding="utf-8")
    assert fmt.load(path) == [0, 1]  # a complete record is kept
    writer = fmt.open(path, True)
    fmt.append(writer, 2)
    writer.close()
    assert fmt.load(path) == [0, 1, 2]  # and not fused with the next


@pytest.mark.parametrize("fault", ["torn_write", "enospc"])
def test_failed_append_rolls_back(fmt, tmp_path, fault):
    path = tmp_path / fmt.filename
    writer = fmt.open(path, False)
    fmt.append(writer, 0)
    schedule = FaultSchedule(seed=0, rules=(
        FaultRule("disk", fault, match=fmt.filename, op="write",
                  max_fires=1),
    ))
    with chaos_fs.active(schedule):
        if fmt.raises:
            with pytest.raises(OSError):
                fmt.append(writer, 1)
        else:
            fmt.append(writer, 1)  # counted and swallowed
    assert schedule.fired_by_seam() == {"disk": 1}
    assert fmt.write_errors(writer) == 1
    assert fmt.load(path) == [0]  # no torn fragment left behind
    fmt.append(writer, 2)
    writer.close()
    assert fmt.load(path) == [0, 2]
