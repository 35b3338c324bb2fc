"""The fabric coordinator: plan, spawn, monitor, recover, aggregate.

:func:`run_fabric_sweep` is the distributed twin of
:func:`repro.experiments.sweep.run_sweep` — same spec in, same
:class:`~repro.experiments.sweep.SweepResult` out, **bit-identical
summaries** (every point is a pure function of its parameters, so where
it runs can never change what it computes). What differs is the engine
underneath: the sweep is partitioned into deterministic shards
(:mod:`repro.experiments.fabric.shards`), published to a job directory
(:mod:`repro.experiments.fabric.transport`), and executed by worker
processes — locally spawned ones, externally joined ones
(``repro fabric worker <dir>``), or both.

The coordinator's monitoring loop is the fabric's recovery engine:

* worker progress streams are merged into the job-wide
  :class:`~repro.experiments.progress.EventLog` (so ``--jsonl``,
  ``--live``, ``repro watch`` and the run registry see one stream);
* a spawned worker that dies has its leases broken immediately
  (``worker_dead`` + ``shard_reassigned`` events), and any lease whose
  heartbeat goes stale — hung worker, lost host — is expired the same
  way, returning the shard to the queue for work stealing;
* if every managed worker is dead while shards are still pending, a
  bounded number of replacement workers is spawned; past that budget
  the run raises :class:`FabricIncomplete` — and a later
  ``run_fabric_sweep`` on the same directory *resumes*: completed
  shards are folded in from their result files, partially executed
  shards re-run as cache hits, and only genuinely missing points are
  simulated.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import (
    ResultCache,
    canonical_json,
    code_fingerprint,
    point_key,
)
from repro.experiments.fabric.faults import FaultSpec
from repro.experiments.fabric.shards import (
    Shard,
    default_shard_count,
    plan_shards,
)
from repro.experiments.fabric.transport import JOB_SCHEMA, FileTransport
from repro.experiments.fabric.worker import worker_main
from repro.experiments.progress import EventLog, SweepMetrics
from repro.experiments.runner import BACKENDS
from repro.util import get_logger, left_sum

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.registry import RunRegistry

__all__ = ["FabricIncomplete", "run_fabric_sweep", "default_fabric_dir"]

_log = get_logger(__name__)


class FabricIncomplete(RuntimeError):
    """A fabric run ended with shards still unexecuted.

    Carries enough state to report progress; the job directory is left
    intact, so re-running :func:`run_fabric_sweep` on it resumes.
    """

    def __init__(self, fabric_dir: Path, done: int, total: int, reason: str):
        self.fabric_dir = Path(fabric_dir)
        self.done = done
        self.total = total
        self.reason = reason
        super().__init__(
            f"fabric job at {fabric_dir} incomplete: {done}/{total} shards "
            f"done ({reason}); re-run on the same directory to resume"
        )


def default_fabric_dir(spec_name: str) -> Path:
    """``.repro-fabric/<spec>`` under the current directory."""
    return Path.cwd() / ".repro-fabric" / spec_name


def _spec_digest(spec_dict: Dict[str, Any]) -> str:
    return hashlib.sha256(
        canonical_json({"format": JOB_SCHEMA, "spec": spec_dict}).encode()
    ).hexdigest()[:16]


def _spawn_worker(
    fabric_dir: Path, worker_id: str, poll_s: float
) -> multiprocessing.Process:
    proc = multiprocessing.Process(
        target=worker_main,
        args=(str(fabric_dir), worker_id),
        kwargs={"poll_s": poll_s},
        name=f"fabric-{worker_id}",
        daemon=True,
    )
    proc.start()
    return proc


#: Cap on per-run attempt/shard detail persisted to the registry — keeps
#: run records small for million-point studies while preserving full
#: detail for the shard counts a dashboard actually draws.
_FABRIC_DETAIL_CAP = 200


def _fabric_stats(
    log: EventLog,
    *,
    fabric_dir: Path,
    shards: Sequence[Shard],
    outcomes: Dict[int, Any],
    workers: int,
    max_respawns: int,
    trace: bool,
) -> Dict[str, Any]:
    """Condense the coordinator's merged stream into a fabric summary.

    Computed from the coordinator's **own** :class:`EventLog` (relayed
    worker events carry coordinator-clock ``t``), so the block needs no
    import from :mod:`repro.obs` — the registry just stores it, and the
    anomaly rules / report read it back. Attempts are reconstructed the
    same way :mod:`repro.obs.fabtrace` does, but against relay times:
    a ``shard_claimed`` opens an attempt; ``shard_done``, a ``fault``,
    or a ``shard_reassigned`` steal closes it.
    """
    attempts: List[Dict[str, Any]] = []
    open_by_shard: Dict[str, List[Dict[str, Any]]] = {}
    workers_seen: set = set()
    for e in log.events:
        kind = e.get("event")
        shard = e.get("shard")
        if kind == "shard_claimed":
            attempt = {
                "shard": shard,
                "worker": e.get("worker"),
                "t0": e.get("t"),
                "t1": None,
                "outcome": "running",
            }
            attempts.append(attempt)
            open_by_shard.setdefault(str(shard), []).append(attempt)
            workers_seen.add(str(e.get("worker")))
        elif kind in ("shard_done", "fault"):
            for attempt in open_by_shard.get(str(shard), []):
                if (
                    attempt["outcome"] == "running"
                    and attempt["worker"] == e.get("worker")
                ):
                    attempt["t1"] = e.get("t")
                    if kind == "shard_done":
                        attempt["outcome"] = "done"
                    else:
                        attempt["outcome"] = (
                            "killed" if e.get("kind") == "kill" else "hung"
                        )
                    break
        elif kind == "shard_reassigned":
            for attempt in open_by_shard.get(str(shard), []):
                if attempt["outcome"] == "running":
                    attempt["t1"] = e.get("t")
                    attempt["outcome"] = "stolen"
    shard_walls: Dict[str, float] = {}
    for s in shards[:_FABRIC_DETAIL_CAP]:
        shard_walls[s.shard_id] = round(
            left_sum(
                outcomes[i].wall_s
                for i in s.point_indices
                if i in outcomes and not outcomes[i].cached
            ),
            6,
        )
    return {
        "fabric_dir": str(fabric_dir),
        "workers": workers,
        "workers_seen": sorted(workers_seen),
        "shards": len(shards),
        "steals": len(log.of_type("shard_reassigned")),
        "respawns": sum(
            1 for e in log.of_type("worker_spawned") if e.get("respawn")
        ),
        "max_respawns": max_respawns,
        "worker_deaths": len(log.of_type("worker_dead")),
        "trace": trace,
        "shard_walls": shard_walls,
        "attempts": attempts[:_FABRIC_DETAIL_CAP],
    }


def run_fabric_sweep(
    spec: "SweepSpec",
    *,
    fabric_dir: Optional[Path] = None,
    workers: int = 2,
    cache: Optional[ResultCache] = None,
    log: Optional[EventLog] = None,
    registry: Optional["RunRegistry"] = None,
    backend: str = "fast",
    num_shards: Optional[int] = None,
    shard_size: Optional[int] = None,
    faults: Sequence[FaultSpec] = (),
    heartbeat_s: float = 0.5,
    lease_timeout_s: float = 5.0,
    poll_s: float = 0.05,
    worker_poll_s: float = 0.05,
    respawn: bool = True,
    max_respawns: int = 2,
    timeout_s: float = 600.0,
    trace: bool = True,
) -> "SweepResult":
    """Execute ``spec`` across sharded workers; summaries match
    :func:`~repro.experiments.sweep.run_sweep` bit for bit.

    Parameters mirror ``run_sweep`` where shared (``cache``, ``log``,
    ``registry``, ``backend``); the rest shape the fabric:

    ``workers``
        Local worker processes to spawn. 0 spawns none — the job waits
        for external ``repro fabric worker`` processes to join.
    ``num_shards`` / ``shard_size``
        Partitioning override (mutually exclusive); the default is
        :func:`~repro.experiments.fabric.shards.default_shard_count`.
    ``faults``
        Fault plan published in ``job.json`` (CI's recovery drills).
    ``heartbeat_s`` / ``lease_timeout_s``
        Worker lease cadence and the staleness bound past which a shard
        is stolen.
    ``respawn`` / ``max_respawns``
        Replacement-worker budget once *all* managed workers are dead.
    ``timeout_s``
        Hard deadline; on expiry (or an exhausted respawn budget) the
        run raises :class:`FabricIncomplete` and the directory resumes
        on the next call.

    The probes of ``run_sweep`` (``audit_dir``, ``ledger``, ``lineage``)
    are unsupported here: their payloads do not travel through shard
    result files. Run probed sweeps locally, where the probes combine
    on one run and each payload is cached beside the point's entry.
    """
    from repro.experiments.sweep import (
        PointResult,
        ScenarioSummary,
        SweepResult,
        run_sweep,  # noqa: F401  (documented twin; not called)
    )

    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if num_shards is not None and shard_size is not None:
        raise ValueError("num_shards and shard_size are mutually exclusive")
    log = log if log is not None else EventLog()
    t_start = time.perf_counter()

    points = spec.expand()
    fingerprint = code_fingerprint()
    keys = {p.index: point_key(p.params, fingerprint=fingerprint) for p in points}
    fabric_dir = Path(fabric_dir) if fabric_dir else default_fabric_dir(spec.name)
    transport = FileTransport(fabric_dir)

    # ------------------------------------------------------------------
    # probe the shared cache: hits never enter the shard plan
    # ------------------------------------------------------------------
    outcomes: Dict[int, PointResult] = {}
    misses: List[int] = []
    for p in points:
        hit = cache.get(keys[p.index]) if cache is not None else None
        if hit is not None:
            outcomes[p.index] = PointResult(
                index=p.index,
                label=p.label,
                params=p.params,
                key=keys[p.index],
                summary=ScenarioSummary.from_dict(hit),
                cached=True,
                wall_s=0.0,
                worker="cache",
            )
        else:
            misses.append(p.index)

    # ------------------------------------------------------------------
    # publish or resume the job
    # ------------------------------------------------------------------
    spec_dict = spec.to_dict()
    digest = _spec_digest(spec_dict)
    resuming = transport.has_job()
    if resuming:
        job = transport.read_job()
        if job.get("spec_digest") != digest:
            raise ValueError(
                f"{fabric_dir} holds a different job "
                f"(spec digest {job.get('spec_digest')!r} != {digest!r}); "
                "use a fresh --dir"
            )
        if job.get("code_fingerprint") != fingerprint[:16]:
            raise ValueError(
                f"{fabric_dir} was planned against different code; "
                "cache keys have shifted — use a fresh --dir"
            )
        transport.clear_stop()
        shards = tuple(
            Shard(
                index=int(s["index"]),
                shard_id=str(s["shard_id"]),
                point_indices=tuple(int(i) for i in s["point_indices"]),
            )
            for s in job["shards"]
        )
    else:
        if shard_size is not None:
            if shard_size < 1:
                raise ValueError(f"shard_size must be >= 1, got {shard_size}")
            planned = max(1, -(-len(misses) // shard_size)) if misses else 0
        else:
            planned = (
                num_shards
                if num_shards is not None
                else default_shard_count(len(misses), workers)
            )
        shards = plan_shards(misses, planned) if misses else ()
        job = {
            "schema": JOB_SCHEMA,
            "name": spec.name,
            "spec": spec_dict,
            "spec_digest": digest,
            "code_fingerprint": fingerprint[:16],
            "backend": backend,
            "cache_dir": None if cache is None else str(cache.root),
            "points": [
                {
                    "index": p.index,
                    "label": p.label,
                    "key": keys[p.index],
                    "params": p.params,
                }
                for p in points
            ],
            "shards": [
                {
                    "index": s.index,
                    "shard_id": s.shard_id,
                    "point_indices": list(s.point_indices),
                }
                for s in shards
            ],
            "faults": [f.to_dict() for f in faults],
            "config": {
                "heartbeat_s": heartbeat_s,
                "lease_timeout_s": lease_timeout_s,
                "poll_s": worker_poll_s,
                "trace": trace,
            },
        }
        if misses:
            transport.publish_job(job)

    # flight recorder: with tracing on (the default), the coordinator's
    # own span stream is dual-stamped (t_wall/t_mono) and teed into
    # <fabric_dir>/coordinator.jsonl — job root, NOT events/, so the
    # worker-stream tailer never re-ingests it. With tracing off nothing
    # is written and events stay wall-clock-free; summaries are a pure
    # function of the points either way.
    coord_stream = None
    if trace and transport.has_job():
        coord_stream = open(
            fabric_dir / "coordinator.jsonl", "a", encoding="utf-8"
        )
        log.add_mirror(coord_stream)
        log.enable_clock()

    log.emit(
        "sweep_start",
        spec=spec.name,
        points=len(points),
        workers=workers,
        cached=len(outcomes),
        driver="fabric",
        shards=len(shards),
        fabric_dir=str(fabric_dir),
    )
    if resuming:
        log.emit(
            "job_resumed",
            fabric_dir=str(fabric_dir),
            shards=len(shards),
        )
    elif misses:
        log.emit(
            "job_published",
            fabric_dir=str(fabric_dir),
            shards=len(shards),
            points=len(misses),
        )
    for p in points:
        if p.index in outcomes:
            log.emit(
                "point_done",
                label=p.label,
                key=keys[p.index],
                cached=True,
                wall_s=0.0,
                worker="cache",
            )

    def fold_result(shard_id: str) -> bool:
        """Absorb one shard result file into ``outcomes``."""
        result = transport.load_result(shard_id)
        if result is None:
            return False
        for rec in result["records"]:
            idx = int(rec["index"])
            outcomes[idx] = PointResult(
                index=idx,
                label=str(rec["label"]),
                params=dict(rec["params"]),
                key=str(rec["key"]),
                summary=ScenarioSummary.from_dict(rec["summary"]),
                cached=bool(rec["cached"]),
                wall_s=float(rec["wall_s"]),
                worker=str(rec["worker"]),
            )
        return True

    # fold shards completed by a previous coordinator (resume path) and
    # replay their point_done events so the merged stream stays complete
    shard_ids = [s.shard_id for s in shards]
    done_shards = set()
    for shard_id in shard_ids:
        if transport.result_path(shard_id).exists() and fold_result(shard_id):
            done_shards.add(shard_id)
    if resuming:
        for shard_id in sorted(done_shards):
            result = transport.load_result(shard_id)
            for rec in result["records"]:
                log.emit(
                    "point_done",
                    label=rec["label"],
                    key=rec["key"],
                    cached=bool(rec["cached"]),
                    wall_s=float(rec["wall_s"]),
                    worker=str(rec["worker"]),
                    shard=shard_id,
                    resumed=True,
                )

    pending = [s for s in shard_ids if s not in done_shards]
    procs: List[Tuple[str, multiprocessing.Process]] = []
    dead_reported: set = set()
    respawns_left = max_respawns

    # pre-existing event bytes were reported by the previous coordinator
    tailer = transport.event_tailer(skip_existing=resuming)

    def drain_events() -> None:
        for _worker, event in tailer.drain():
            kind = event.get("event")
            if kind in ("worker_start", "worker_exit", "lease_heartbeat"):
                # lifecycle/heartbeat noise stays in the per-worker
                # streams (the flight recorder reads those directly);
                # the merged stream keeps points and shard transitions
                continue
            fields = {
                k: v
                for k, v in event.items()
                if k not in ("schema", "event", "t", "t_wall", "t_mono")
            }
            log.emit(kind, **fields)

    def shutdown_workers(grace_s: float = 2.0) -> None:
        transport.write_stop()
        deadline = time.monotonic() + grace_s
        for _wid, proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for _wid, proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)

    try:
        if pending:
            next_worker = 0
            for _ in range(workers):
                wid = f"w{next_worker}"
                next_worker += 1
                procs.append((wid, _spawn_worker(fabric_dir, wid, worker_poll_s)))
            deadline = time.monotonic() + timeout_s
            while pending:
                drain_events()
                for shard_id in list(pending):
                    if transport.result_path(shard_id).exists() and fold_result(
                        shard_id
                    ):
                        pending.remove(shard_id)
                        done_shards.add(shard_id)
                        log.emit(
                            "shard_complete",
                            shard=shard_id,
                            done=len(done_shards),
                            total=len(shard_ids),
                        )
                if not pending:
                    break

                # dead managed workers forfeit their leases immediately
                for wid, proc in procs:
                    if proc.is_alive() or wid in dead_reported:
                        continue
                    dead_reported.add(wid)
                    held = transport.leases_of(wid)
                    for shard_id in held:
                        transport.break_lease(shard_id)
                        log.emit("shard_reassigned", shard=shard_id, worker=wid)
                    if proc.exitcode not in (0, None):
                        log.emit(
                            "worker_dead",
                            worker=wid,
                            exitcode=proc.exitcode,
                            leases_broken=len(held),
                        )

                # stale leases (hung/lost workers, managed or not)
                for shard_id in list(pending):
                    if transport.lease_is_stale(shard_id, lease_timeout_s):
                        transport.break_lease(shard_id)
                        log.emit(
                            "shard_reassigned", shard=shard_id, worker="stale"
                        )

                if workers > 0 and all(not p.is_alive() for _w, p in procs):
                    if respawn and respawns_left > 0:
                        respawns_left -= 1
                        wid = f"w{next_worker}"
                        next_worker += 1
                        procs.append(
                            (wid, _spawn_worker(fabric_dir, wid, worker_poll_s))
                        )
                        log.emit("worker_spawned", worker=wid, respawn=True)
                    else:
                        raise FabricIncomplete(
                            fabric_dir,
                            len(done_shards),
                            len(shard_ids),
                            "all workers dead and respawn budget exhausted",
                        )
                if time.monotonic() > deadline:
                    raise FabricIncomplete(
                        fabric_dir,
                        len(done_shards),
                        len(shard_ids),
                        f"timeout after {timeout_s}s",
                    )
                time.sleep(poll_s)
    finally:
        # a fully-cached sweep never published a job directory — there
        # is nothing to stop and nothing to drain
        if transport.has_job():
            shutdown_workers()
            drain_events()
        # on an exception (FabricIncomplete, simulator error) detach the
        # mirror NOW: a resume may reuse this EventLog, and a stale
        # mirror would double-write the next run's stream. The success
        # path keeps it attached so sweep_done/run_registered land too.
        if coord_stream is not None and sys.exc_info()[0] is not None:
            log.remove_mirror(coord_stream)
            coord_stream.close()
            coord_stream = None

    missing = [i for p in points if (i := p.index) not in outcomes]
    if missing:  # pragma: no cover - guarded by the pending loop
        raise FabricIncomplete(
            fabric_dir, len(done_shards), len(shard_ids),
            f"{len(missing)} point(s) without results",
        )

    elapsed = time.perf_counter() - t_start
    executed = [r for r in outcomes.values() if not r.cached]
    executed_wall = left_sum(r.wall_s for r in executed)
    pool = max(1, workers)
    metrics = SweepMetrics(
        points=len(points),
        executed=len(executed),
        cache_hits=len(points) - len(executed),
        elapsed_s=elapsed,
        executed_wall_s=executed_wall,
        workers=workers,
        worker_utilization=(
            executed_wall / (pool * elapsed) if executed and elapsed > 0 else 0.0
        ),
    )
    log.emit("sweep_done", **metrics.to_dict())
    ordered = tuple(outcomes[p.index] for p in points)
    result = SweepResult(spec_name=spec.name, results=ordered, metrics=metrics)
    if registry is not None:
        fabric_block = _fabric_stats(
            log,
            fabric_dir=fabric_dir,
            shards=shards,
            outcomes=outcomes,
            workers=workers,
            max_respawns=max_respawns,
            trace=trace,
        )
        record = registry.ingest_sweep(
            spec,
            result,
            artifacts={"fabric_dir": fabric_dir},
            extra={"fabric": fabric_block},
        )
        log.emit("run_registered", run_id=record["run_id"])
    if coord_stream is not None:
        log.remove_mirror(coord_stream)
        coord_stream.close()
    return result
