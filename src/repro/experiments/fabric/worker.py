"""The fabric worker: claim shards, execute points, heartbeat, report.

A worker is a plain process (``repro fabric worker <dir>``, or one the
coordinator spawns locally) that loops over the job directory: claim an
available shard, execute its points through the *shared* sweep core
(:func:`repro.experiments.sweep.run_shard` — the exact code the local
pool runs), publish the result, release the lease, repeat. Everything a
worker produces is idempotent:

* executed points land in the shared content-addressed
  :class:`~repro.experiments.cache.ResultCache` (provenance-stamped by
  ``cache.put``), so a re-executed shard — stolen, duplicated, resumed —
  is a pure cache hit;
* shard results are atomic whole-file writes keyed by shard id, so
  redelivery overwrites bytes with the same bytes.

While executing, a daemon thread refreshes the shard's lease every
``heartbeat_s``; a worker that dies (or is fault-injected dead) simply
stops refreshing, its lease goes stale, and the shard is stolen. The
worker narrates itself as ``"schema": 1`` progress events into its own
``events/<worker>.jsonl`` stream, which the coordinator merges into the
job-wide stream for ``repro watch`` / ``--live`` / the run registry.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.cache import ResultCache
from repro.experiments.fabric.faults import FaultInjector
from repro.experiments.fabric.transport import FileTransport
from repro.experiments.progress import EventLog
from repro.experiments.runner import BACKENDS
from repro.util import get_logger

__all__ = ["worker_main", "LeaseHeartbeat"]

_log = get_logger(__name__)


class LeaseHeartbeat:
    """Daemon thread refreshing one shard lease at a fixed cadence.

    ``on_beat`` (the flight-recorder hook) fires after every successful
    lease refresh — the worker uses it to emit ``lease_heartbeat`` span
    events into its stream when tracing is on. :class:`EventLog` emits
    under a lock, so the callback is safe from this daemon thread.
    """

    def __init__(
        self,
        transport: FileTransport,
        shard_id: str,
        worker_id: str,
        interval_s: float,
        on_beat: Optional[Callable[[], None]] = None,
    ) -> None:
        self._transport = transport
        self._shard_id = shard_id
        self._worker_id = worker_id
        self._interval_s = interval_s
        self._on_beat = on_beat
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{shard_id}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._transport.heartbeat(self._shard_id, self._worker_id)
            except OSError:  # pragma: no cover - transient fs error
                _log.warning(
                    "heartbeat failed for %s/%s", self._worker_id, self._shard_id
                )
                continue
            if self._on_beat is not None:
                self._on_beat()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def _execute_shard_points(
    indices: List[int],
    points_by_index: Dict[int, Dict[str, Any]],
    *,
    cache: Optional[ResultCache],
    backend: str,
    worker_id: str,
    shard_id: str,
    events: EventLog,
    injector: FaultInjector,
    shard_ordinal: int,
) -> Optional[List[Dict[str, Any]]]:
    """Run one shard's points; None means a fault ended this worker's run.

    Imports the sweep core lazily so a worker process only pays for the
    simulator once it actually has work.
    """
    from repro.experiments.sweep import ScenarioSummary, run_shard

    records: List[Dict[str, Any]] = []

    def fault_at(completed: int) -> Optional[str]:
        action = injector.at_boundary(shard_ordinal, completed)
        if action == "kill":
            _log.info("%s: injected kill at %s+%d", worker_id, shard_id, completed)
            # the span lands before the exit: emit flushes the stream,
            # so the flight recorder sees the kill even though nothing
            # after os._exit ever runs
            events.emit(
                "fault",
                kind="kill",
                worker=worker_id,
                shard=shard_id,
                completed=completed,
            )
            os._exit(137)
        if action == "hang":
            # Stop participating without exiting: the lease goes stale
            # (the caller stops the heartbeat), the shard gets stolen,
            # and this process idles until the coordinator says stop.
            _log.info("%s: injected hang at %s+%d", worker_id, shard_id, completed)
            events.emit(
                "fault",
                kind="hang",
                worker=worker_id,
                shard=shard_id,
                completed=completed,
            )
            return "hang"
        return None

    if fault_at(0) == "hang":
        return None

    todo: List[tuple] = []
    for idx in indices:
        point = points_by_index[idx]
        events.emit(
            "point_start",
            label=point["label"],
            key=point["key"],
            worker=worker_id,
            shard=shard_id,
        )
        hit = cache.get(point["key"]) if cache is not None else None
        if hit is not None:
            record = {
                "index": idx,
                "label": point["label"],
                "key": point["key"],
                "params": point["params"],
                "summary": ScenarioSummary.from_dict(hit).to_dict(),
                "cached": True,
                "wall_s": 0.0,
                "worker": "cache",
            }
            records.append(record)
            events.emit(
                "point_done",
                label=point["label"],
                key=point["key"],
                cached=True,
                wall_s=0.0,
                worker="cache",
                shard=shard_id,
            )
            if fault_at(len(records)) == "hang":
                return None
        else:
            todo.append((idx, point["params"]))

    # run_shard yields per point in order; interleave cache writes,
    # events and fault boundaries as each point lands.
    done_before_misses = len(records)
    for n, (idx, summary_dict, wall_s, *_) in enumerate(
        run_shard(todo, backend=backend, worker=worker_id), start=1
    ):
        point = points_by_index[idx]
        if cache is not None:
            cache.put(point["key"], point["params"], summary_dict)
        record = {
            "index": idx,
            "label": point["label"],
            "key": point["key"],
            "params": point["params"],
            "summary": summary_dict,
            "cached": False,
            "wall_s": wall_s,
            "worker": worker_id,
        }
        records.append(record)
        events.emit(
            "point_done",
            label=point["label"],
            key=point["key"],
            cached=False,
            wall_s=round(wall_s, 6),
            worker=worker_id,
            shard=shard_id,
        )
        if fault_at(done_before_misses + n) == "hang":
            return None

    records.sort(key=lambda r: r["index"])
    return records


def worker_main(
    root: str,
    worker_id: Optional[str] = None,
    *,
    poll_s: Optional[float] = None,
) -> int:
    """Worker process entry point; returns an exit code.

    Exits 0 when every shard in the job has a result (or the coordinator
    raised the stop flag); the only other ways out are the fault
    injector's ``os._exit`` and an unhandled simulator error. A job
    naming a backend outside :data:`~repro.experiments.runner.BACKENDS`
    raises ``ValueError`` before the worker registers or claims a shard.
    """
    transport = FileTransport(Path(root))
    job = transport.read_job()
    backend = str(job.get("backend", "fast"))
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    worker_id = worker_id or f"w{os.getpid()}"
    config = job.get("config", {})
    poll = poll_s if poll_s is not None else float(config.get("poll_s", 0.2))
    heartbeat_s = float(config.get("heartbeat_s", 1.0))
    lease_timeout_s = float(config.get("lease_timeout_s", 10.0))
    cache_dir = job.get("cache_dir")
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    points_by_index = {int(p["index"]): p for p in job["points"]}
    shard_indices = {
        s["shard_id"]: [int(i) for i in s["point_indices"]]
        for s in job["shards"]
    }
    all_shard_ids = sorted(shard_indices)
    injector = FaultInjector.from_dicts(job.get("faults"), worker_id)

    # tracing (on by default) adds t_wall/t_mono to every event and
    # narrates lease heartbeats; with it off the stream is exactly the
    # pre-flight-recorder vocabulary. Either way summaries are a pure
    # function of the points — events never feed back into execution.
    trace = bool(config.get("trace", True))

    transport.register_worker(worker_id)
    shard_ordinal = 0
    hung = False
    with transport.open_event_stream(worker_id) as stream:
        events = EventLog(stream=stream, clock=trace)
        events.emit("worker_start", worker=worker_id, pid=os.getpid())
        while not transport.stopped():
            if hung or transport.all_done(all_shard_ids):
                if hung:
                    # idle silently until the coordinator stops the job
                    time.sleep(poll)
                    continue
                break
            shard_id = transport.claim_shard(
                worker_id, lease_timeout_s=lease_timeout_s
            )
            if shard_id is None:
                time.sleep(poll)
                continue
            events.emit("shard_claimed", shard=shard_id, worker=worker_id)
            on_beat = None
            if trace:

                def on_beat(shard: str = shard_id) -> None:
                    events.emit(
                        "lease_heartbeat", shard=shard, worker=worker_id
                    )

            heartbeat = LeaseHeartbeat(
                transport, shard_id, worker_id, heartbeat_s, on_beat
            )
            try:
                records = _execute_shard_points(
                    shard_indices[shard_id],
                    points_by_index,
                    cache=cache,
                    backend=backend,
                    worker_id=worker_id,
                    shard_id=shard_id,
                    events=events,
                    injector=injector,
                    shard_ordinal=shard_ordinal,
                )
            finally:
                heartbeat.stop()
            if records is None:  # hang fault: abandon the lease mid-shard
                hung = True
                continue
            transport.submit_result(shard_id, worker_id, records)
            transport.break_lease(shard_id)
            events.emit(
                "shard_done",
                shard=shard_id,
                worker=worker_id,
                points=len(records),
            )
            if injector.duplicate_after_submit(shard_ordinal):
                # redeliver: re-execute (pure cache hits) and re-submit
                events.emit(
                    "shard_duplicate", shard=shard_id, worker=worker_id
                )
                dup = _execute_shard_points(
                    shard_indices[shard_id],
                    points_by_index,
                    cache=cache,
                    backend=backend,
                    worker_id=worker_id,
                    shard_id=shard_id,
                    events=events,
                    injector=injector,
                    shard_ordinal=shard_ordinal,
                )
                if dup is not None:
                    transport.submit_result(shard_id, worker_id, dup)
            shard_ordinal += 1
        events.emit("worker_exit", worker=worker_id, shards=shard_ordinal)
    return 0
