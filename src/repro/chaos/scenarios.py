"""The chaos scenario catalogue: end-to-end runs under fault schedules.

Each scenario is a function ``(seed, workdir) -> (schedule, invariants)``
executing one realistic workload with a seeded :class:`FaultSchedule`
installed across the relevant seams, then checking the cross-layer
invariants from :mod:`repro.chaos.invariants`.  The catalogue (seam
coverage, fault mix, expected behaviour) is documented in
``docs/chaos.md`` and mirrored in the failure matrix of
``docs/robustness.md``.

Scenario design rules:

* every scenario computes its *reference* answer on a clean path before
  any fault is installed — exactness is always judged against ground
  truth, never against another chaotic run;
* schedules aim faults by occurrence index (``after`` / ``max_fires``)
  so a seed maps to one concrete failure story, not a statistical soup;
* scenarios marked ``deterministic=True`` perform no timing-dependent
  I/O while the schedule is live, so the same seed replays the
  *identical* fault trace — ``tools/chaos_smoke.py`` double-runs one to
  prove it.

The graphs are small planted instances: the invariants are about the
machinery around the enumeration, not enumeration scale.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.bigraph.generators import planted_bicliques
from repro.bigraph.io import write_edge_list
from repro.chaos import fs, net
from repro.chaos.invariants import (
    InvariantResult,
    artifact_store_intact,
    exact_result_set,
    journal_replay_consistent,
    no_duplicates,
    seam_fired,
    task_ledger,
)
from repro.chaos.schedule import FaultRule, FaultSchedule
from repro.core.base import run_mbe

__all__ = ["SCENARIOS", "ScenarioDef", "build_schedule", "run_scenario"]


@dataclass(frozen=True)
class ScenarioDef:
    """One catalogue entry: builder + runner + metadata."""

    name: str
    description: str
    #: seams this scenario claims to exercise (asserted via seam_fired)
    seams: tuple[str, ...]
    build: Callable[[int], FaultSchedule]
    run: Callable[[FaultSchedule, str], list[InvariantResult]]
    #: True when the fault trace is a pure function of the seed
    deterministic: bool = False


def _graph(seed: int = 3):
    return planted_bicliques(30, 30, 5, noise_edges=60, seed=seed)


def _reference_set(graph):
    return run_mbe(graph, "mbet", collect=True).biclique_set()


# --------------------------------------------------------------------------
# single_node: parallel run with checkpoint under process + disk faults


def _build_single_node(seed: int) -> FaultSchedule:
    return FaultSchedule(
        seed=seed,
        rules=(
            FaultRule("disk", "torn_write", match="checkpoint.jsonl",
                      op="write", after=3, max_fires=1),
            FaultRule("disk", "enospc", match="checkpoint.jsonl",
                      op="write", after=6, max_fires=1),
        ),
        process={
            # every task at least dawdles (guaranteed process firings);
            # a seeded fraction crashes once and succeeds on retry
            "slow_rate": 1.0,
            "slow_seconds": 0.001,
            "crash_rate": 0.25,
            "crash_attempts": 1,
        },
    )


def _run_single_node(
    schedule: FaultSchedule, workdir: str
) -> list[InvariantResult]:
    from repro.core.parallel import ParallelMBE
    from repro.runtime.checkpoint import load_checkpoint

    graph = _graph()
    reference = _reference_set(graph)
    ckpt = os.path.join(workdir, "checkpoint.jsonl")

    with fs.active(schedule):
        algo = ParallelMBE(
            workers=1, checkpoint=ckpt,
            faults=schedule.to_fault_plan(), max_retries=3,
        )
        result = algo.run(graph, collect=True)

    def _checkpoint_state():
        parsed = load_checkpoint(ckpt)
        return sorted(parsed.records) if parsed else []

    checks = [
        exact_result_set(reference, result.bicliques or ()),
        no_duplicates(result.bicliques or ()),
        InvariantResult(
            "run_complete", result.complete,
            f"complete={result.complete} meta={result.meta}",
        ),
        task_ledger(result),
        journal_replay_consistent(_checkpoint_state, label="checkpoint"),
        seam_fired(schedule, "process"),
        seam_fired(schedule, "disk"),
    ]

    # a clean resume against the survived checkpoint must also be exact
    resumed = ParallelMBE(workers=1, checkpoint=ckpt).run(
        graph, collect=True
    )
    checks.append(
        exact_result_set(reference, resumed.bicliques or (), label="resume")
    )
    checks.append(task_ledger(resumed, label="resume"))
    return checks


# --------------------------------------------------------------------------
# serve_restart: journal faults during admission, crash, restart resume


def _build_serve_restart(seed: int) -> FaultSchedule:
    return FaultSchedule(
        seed=seed,
        rules=(
            # third journal append tears mid-record; the repaired tail
            # plus the 503 admission path must leave a resumable journal
            FaultRule("disk", "torn_write", match="journal.jsonl",
                      op="write", after=2, max_fires=1),
            FaultRule("disk", "enospc", match="journal.jsonl",
                      op="write", after=4, max_fires=1),
        ),
    )


def _run_serve_restart(
    schedule: FaultSchedule, workdir: str
) -> list[InvariantResult]:
    from repro.serve import (
        AdmissionError,
        EnumerationService,
        ServiceConfig,
        load_journal,
    )

    jobs = []
    for i in range(4):
        g = planted_bicliques(10, 10, 2, noise_edges=8, seed=20 + i)
        edges = [[u, v] for u, v in g.edges()]
        jobs.append((edges, _reference_set(g)))

    state_dir = os.path.join(workdir, "serve")
    checks: list[InvariantResult] = []
    retried_503 = 0

    # life 1: admit jobs under disk chaos; crash before any worker runs
    with fs.active(schedule):
        service = EnumerationService(
            ServiceConfig(state_dir=state_dir, workers=1)
        )
        admitted: list[tuple[str, int]] = []
        for i, (edges, _ref) in enumerate(jobs):
            payload = {
                "engine": "mbet", "edges": edges,
                "idempotency_key": f"chaos-{i}",
            }
            for _attempt in range(6):
                try:
                    job, _dedup = service.submit(payload)
                except AdmissionError as exc:
                    if exc.status != 503:
                        raise
                    retried_503 += 1
                    continue
                admitted.append((job.job_id, i))
                break
        # hard crash: the journal handle dies with no drain
        service.journal.close()

    checks.append(InvariantResult(
        "all_jobs_admitted", len(admitted) == len(jobs),
        f"{len(admitted)}/{len(jobs)} admitted "
        f"({retried_503} retries after 503)",
    ))

    # life 2: clean restart resumes every admitted job to an exact answer
    service2 = EnumerationService(
        ServiceConfig(state_dir=state_dir, workers=1)
    )
    service2.start()
    try:
        for job_id, i in admitted:
            t0 = time.monotonic()
            while time.monotonic() - t0 < 30.0:
                if service2.status(job_id)["state"] in (
                    "done", "failed", "cancelled",
                ):
                    break
                time.sleep(0.01)
            payload = service2.result(job_id)
            ok_state = payload.get("state") == "done"
            checks.append(InvariantResult(
                f"job_resumed:{i}", ok_state,
                f"state={payload.get('state')}",
            ))
            if ok_state:
                checks.append(exact_result_set(
                    jobs[i][1], payload["bicliques"], label=f"job{i}",
                ))
        # idempotent resubmission after the crash/restart cycle: the
        # key index is rebuilt from the journal, not RAM
        job, dedup = service2.submit({
            "engine": "mbet", "edges": jobs[0][0],
            "idempotency_key": "chaos-0",
        })
        checks.append(InvariantResult(
            "idempotency_survived_restart", bool(dedup),
            f"resubmit dedup={dedup} job={job.job_id}",
        ))
    finally:
        service2.drain(timeout=5)

    journal_path = os.path.join(state_dir, "journal.jsonl")
    checks.append(journal_replay_consistent(
        lambda: sorted(
            (jid, rec["event"]) for jid, rec in load_journal(
                journal_path
            ).items()
        ),
        label="serve",
    ))
    checks.append(seam_fired(schedule, "disk"))
    return checks


# --------------------------------------------------------------------------
# federated: 2-worker cluster under network + coordinator-disk faults


def _build_federated(seed: int) -> FaultSchedule:
    return FaultSchedule(
        seed=seed,
        rules=(
            # first slice dispatch never arrives; retry redelivers
            FaultRule("net", "reset", op="POST", match="/slices",
                      max_fires=1),
            # one dispatch is delivered twice; worker idempotency dedupes
            FaultRule("net", "duplicate", op="POST", match="/slices",
                      after=1, max_fires=1),
            # two ambiguous poll timeouts (request lands, response lost)
            FaultRule("net", "timeout", op="GET", match="/jobs/",
                      max_fires=2),
            # one poll answers 500; the coordinator just polls again
            FaultRule("net", "http_500", op="GET", match="/jobs/",
                      after=4, max_fires=1),
            # a sluggish heartbeat now and then
            FaultRule("net", "slow", op="GET", match="/healthz",
                      rate=0.25, seconds=0.02),
            # one torn write inside the coordinator's state dir (journal
            # or spool — both must self-repair)
            FaultRule("disk", "torn_write", match="coord", op="write",
                      after=3, max_fires=1),
        ),
    )


def _run_federated(
    schedule: FaultSchedule, workdir: str
) -> list[InvariantResult]:
    import threading

    from repro.cluster import (
        ClusterConfig,
        ClusterCoordinator,
        load_cluster_journal,
    )
    from repro.serve import EnumerationService, ServiceConfig, \
        make_http_server

    graph = _graph()
    reference = _reference_set(graph)
    gpath = os.path.join(workdir, "graph.txt")
    write_edge_list(graph, gpath)

    services = []
    try:
        for i in range(2):
            service = EnumerationService(ServiceConfig(
                state_dir=os.path.join(workdir, f"w{i}"), workers=1,
            ))
            service.start()
            httpd = make_http_server(service)
            threading.Thread(
                target=httpd.serve_forever,
                kwargs={"poll_interval": 0.05}, daemon=True,
            ).start()
            services.append((
                service, httpd,
                f"http://127.0.0.1:{httpd.server_address[1]}",
            ))

        with fs.active(schedule), net.active(schedule):
            coord = ClusterCoordinator(ClusterConfig(
                state_dir=os.path.join(workdir, "coord"),
                workers=[s[2] for s in services],
                n_slices=4,
                heartbeat_interval=0.1,
                heartbeat_timeout=1.0,
                poll_interval=0.02,
                request_timeout=5.0,
            ))
            result = coord.run({"graph_path": gpath})
            coord.close()
    finally:
        for service, httpd, _url in services:
            httpd.shutdown()
            service.drain(timeout=5)

    journal_path = os.path.join(workdir, "coord", "journal.jsonl")

    def _replay():
        plan, events = load_cluster_journal(journal_path)
        return (
            None if plan is None else plan.get("fingerprint"),
            [(e.get("event"), e.get("slice_id")) for e in events],
        )

    return [
        InvariantResult(
            "run_complete", result.complete,
            f"complete={result.complete} meta={result.meta}",
        ),
        exact_result_set(reference, result.bicliques or ()),
        no_duplicates(result.bicliques or ()),
        journal_replay_consistent(_replay, label="cluster"),
        seam_fired(schedule, "net"),
    ]


# --------------------------------------------------------------------------
# warm_cache: artifact store under corruption; wrong answers never served


def _build_warm_cache(seed: int) -> FaultSchedule:
    return FaultSchedule(
        seed=seed,
        rules=(
            FaultRule("disk", "bitflip", match="artifacts", op="write",
                      rate=0.6),
            FaultRule("disk", "enospc", match="artifacts", op="write",
                      rate=0.3),
            FaultRule("disk", "replace_error", match="artifacts",
                      op="replace", rate=0.25),
            FaultRule("disk", "lost_fsync", match="artifacts",
                      op="fsync", rate=1.0),
        ),
    )


def _run_warm_cache(
    schedule: FaultSchedule, workdir: str
) -> list[InvariantResult]:
    from repro.artifacts import ArtifactStore, graph_key
    from repro.artifacts.kinds import (
        cached_cost,
        cached_root_count,
        get_cached_result,
        put_cached_result,
        result_fingerprint,
    )

    graph = _graph(seed=7)
    clean = run_mbe(graph, "mbet", collect=True)
    reference = clean.biclique_set()
    pairs = [(list(b.left), list(b.right)) for b in clean.bicliques]
    store = ArtifactStore(os.path.join(workdir, "artifacts"))
    gk = graph_key(graph)
    fp = result_fingerprint("mbet")

    # cold fills under heavy disk chaos: writes may vanish (ENOSPC,
    # failed rename) or rot (bit flips) — but reads must never lie
    with fs.active(schedule):
        cached_cost(store, gk, graph)
        cached_root_count(store, gk, graph)
        put_cached_result(
            store, gk, fp, engine="mbet", count=clean.count,
            elapsed=clean.elapsed, bicliques=pairs,
        )

    checks: list[InvariantResult] = []
    hit = get_cached_result(store, gk, fp, need_bicliques=True)
    if hit is None:
        checks.append(InvariantResult(
            "cache_never_lies", True,
            "chaotic fill degraded to a miss (write lost or quarantined)",
        ))
    else:
        checks.append(exact_result_set(
            reference, hit["bicliques"], label="chaotic-fill",
        ))

    # quarantine sweep, then a clean refill must serve an exact warm hit
    checks.append(artifact_store_intact(store))
    put_cached_result(
        store, gk, fp, engine="mbet", count=clean.count,
        elapsed=clean.elapsed, bicliques=pairs,
    )
    warm = get_cached_result(store, gk, fp, need_bicliques=True)
    checks.append(InvariantResult(
        "warm_hit_after_repair", warm is not None,
        "clean refill answered from cache" if warm is not None
        else "clean refill still missing",
    ))
    if warm is not None:
        checks.append(exact_result_set(
            reference, warm["bicliques"], label="warm",
        ))
    checks.append(seam_fired(schedule, "disk"))
    return checks


# --------------------------------------------------------------------------
# catalogue


SCENARIOS: dict[str, ScenarioDef] = {
    s.name: s
    for s in (
        ScenarioDef(
            name="single_node",
            description=(
                "checkpointed parallel run under worker crash/slow faults "
                "plus torn/ENOSPC checkpoint writes; exact set, balanced "
                "task ledger, clean resume"
            ),
            seams=("process", "disk"),
            build=_build_single_node,
            run=_run_single_node,
            deterministic=True,
        ),
        ScenarioDef(
            name="serve_restart",
            description=(
                "serve admission under journal torn-write/ENOSPC (503 + "
                "retry), hard crash before execution, restart resumes "
                "every job exactly"
            ),
            seams=("disk",),
            build=_build_serve_restart,
            run=_run_serve_restart,
            deterministic=True,
        ),
        ScenarioDef(
            name="federated",
            description=(
                "2-worker federated job under connection resets, "
                "duplicate delivery, poll timeouts, injected 500s, and a "
                "torn coordinator write; exact exactly-once merge"
            ),
            seams=("net",),
            build=_build_federated,
            run=_run_federated,
        ),
        ScenarioDef(
            name="warm_cache",
            description=(
                "artifact-store fills under bit flips / ENOSPC / failed "
                "renames / lost fsyncs; corrupt entries quarantined, "
                "never served; clean refill hits warm"
            ),
            seams=("disk",),
            build=_build_warm_cache,
            run=_run_warm_cache,
            deterministic=True,
        ),
    )
}


def build_schedule(name: str, seed: int) -> FaultSchedule:
    """The schedule a scenario would run under (without running it)."""
    return SCENARIOS[name].build(seed)


def run_scenario(
    name: str, seed: int, workdir: str
) -> tuple[FaultSchedule, list[InvariantResult]]:
    """Execute one catalogue scenario; returns (schedule, invariants)."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; catalogue: {sorted(SCENARIOS)}"
        ) from None
    os.makedirs(workdir, exist_ok=True)
    schedule = scenario.build(seed)
    return schedule, scenario.run(schedule, workdir)
