"""Cross-layer invariants checked after every chaos scenario.

Each check returns an :class:`InvariantResult` — a named verdict with a
human-readable detail string — rather than raising, so one scenario can
report every violated property instead of stopping at the first.  The
invariant names are stable identifiers: they key the
``chaos_invariant_failures_total`` metric and the JSONL report, and the
scenario catalogue in ``docs/chaos.md`` refers to them.

The properties are the ones the operational stack claims:

* ``exact_results``       — the enumerated maximal-biclique set equals a
  clean reference run's, element for element;
* ``no_duplicates``       — no biclique is reported twice (the
  exactly-once merge / idempotency claim);
* ``journal_replay``      — the journal on disk parses, and parses to the
  same state twice (replay is deterministic and torn tails stay torn);
* ``artifact_integrity``  — a store verify pass leaves a store whose next
  verify pass is clean (corruption is quarantined, never served);
* ``task_ledger``         — a parallel result flagged complete accounts
  for every task: completed equals handed plus split growth;
* ``seam_fired_<seam>``   — the scenario actually injected at least one
  fault on the seam it claims to exercise (guards against a chaos run
  that silently tests nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.chaos.schedule import FaultSchedule

__all__ = [
    "InvariantResult",
    "artifact_store_intact",
    "biclique_pairs",
    "exact_result_set",
    "journal_replay_consistent",
    "no_duplicates",
    "seam_fired",
    "task_ledger",
]


@dataclass
class InvariantResult:
    """One checked property: name, verdict, evidence."""

    invariant: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "ok": self.ok,
            "detail": self.detail,
        }


def biclique_pairs(items: Iterable[Any]) -> list[tuple[tuple, tuple]]:
    """Normalise bicliques to ``(left_tuple, right_tuple)`` pairs.

    Accepts :class:`~repro.core.base.Biclique` objects (engine results)
    and ``[left_list, right_list]`` pairs (serve JSON payloads) alike.
    """
    out = []
    for b in items:
        if hasattr(b, "left"):
            out.append((tuple(b.left), tuple(b.right)))
        else:
            left, right = b
            out.append((tuple(left), tuple(right)))
    return out


def exact_result_set(
    reference: Iterable[Any], actual: Iterable[Any], label: str = ""
) -> InvariantResult:
    """The chaos run's result set equals the clean reference set."""
    ref = set(biclique_pairs(reference))
    got = set(biclique_pairs(actual))
    name = f"exact_results{':' + label if label else ''}"
    if ref == got:
        return InvariantResult(name, True, f"{len(ref)} bicliques match")
    missing = len(ref - got)
    extra = len(got - ref)
    return InvariantResult(
        name, False,
        f"result set diverges from reference: {missing} missing, "
        f"{extra} spurious (reference {len(ref)}, got {len(got)})",
    )


def no_duplicates(actual: Iterable[Any], label: str = "") -> InvariantResult:
    """No biclique was delivered twice (exactly-once merge)."""
    pairs = biclique_pairs(actual)
    name = f"no_duplicates{':' + label if label else ''}"
    dupes = len(pairs) - len(set(pairs))
    if dupes == 0:
        return InvariantResult(name, True, f"{len(pairs)} unique results")
    return InvariantResult(name, False, f"{dupes} duplicated results")


def journal_replay_consistent(
    load: Callable[[], Any], label: str = ""
) -> InvariantResult:
    """``load()`` succeeds and two replays agree.

    ``load`` should read the journal from disk and return something
    comparable (record count, a state dict, …).  A loader that raises —
    mid-file corruption escaped the torn-tail repair — fails the
    invariant with the exception as evidence.
    """
    name = f"journal_replay{':' + label if label else ''}"
    try:
        first = load()
        second = load()
    except Exception as exc:  # noqa: BLE001 — the failure IS the evidence
        return InvariantResult(
            name, False, f"journal replay raised {type(exc).__name__}: {exc}"
        )
    if first == second:
        return InvariantResult(name, True, f"two replays agree ({first!r})")
    return InvariantResult(
        name, False,
        f"replays diverge: first {first!r}, second {second!r}",
    )


def artifact_store_intact(store: Any, label: str = "") -> InvariantResult:
    """A verify pass quarantines all damage; the next pass is clean."""
    name = f"artifact_integrity{':' + label if label else ''}"
    try:
        first = store.verify()
        second = store.verify()
    except Exception as exc:  # noqa: BLE001
        return InvariantResult(
            name, False, f"store verify raised {type(exc).__name__}: {exc}"
        )
    if second["quarantined"]:
        return InvariantResult(
            name, False,
            f"damage survived a verify pass: {second['quarantined']}",
        )
    return InvariantResult(
        name, True,
        f"store clean ({second['ok']} entries; first pass quarantined "
        f"{len(first['quarantined'])})",
    )


def seam_fired(schedule: FaultSchedule, seam: str) -> InvariantResult:
    """The scenario demonstrably injected faults on ``seam``."""
    fired = schedule.fired_by_seam().get(seam, 0)
    name = f"seam_fired_{seam}"
    if fired > 0:
        return InvariantResult(name, True, f"{fired} {seam} faults injected")
    return InvariantResult(
        name, False, f"no {seam} faults fired — the scenario tested nothing"
    )


def task_ledger(result: Any, label: str = "") -> InvariantResult:
    """A ``complete`` parallel result balances its task ledger
    (:func:`repro.check.oracles.ledger_gap`)."""
    from repro.check.oracles import ledger_gap

    name = f"task_ledger{':' + label if label else ''}"
    gap = ledger_gap(result)
    if gap is not None:
        return InvariantResult(name, False, gap)
    meta = result.meta
    return InvariantResult(
        name, True,
        f"complete={result.complete}: {meta.get('completed_tasks', 0)} "
        f"completed of {meta.get('handed_tasks', 0)} handed + "
        f"{meta.get('split_growth', 0)} split growth",
    )
