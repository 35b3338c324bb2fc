"""File-based fabric transport: one shared job directory, many hosts.

The coordinator and its workers never talk directly — they rendezvous
through a *job directory* that only needs atomic ``rename`` and
``O_EXCL`` create to be safe, which every local filesystem and most
network filesystems provide. That makes the same transport work for N
processes on one machine and for N hosts sharing a directory, with no
sockets, no daemons and no third-party broker::

    <job dir>/
      job.json            # the immutable job: spec, points, shard plan
      queue/<shard>.json  # one marker per planned shard (never deleted)
      leases/<shard>.json # live claim: {worker, ts}; heartbeat-refreshed
      results/<shard>.json# completed shard: per-point records (atomic)
      events/<worker>.jsonl  # per-worker "schema":1 progress streams
      workers/<worker>.json  # registration: pid, host, start time
      stop                # coordinator's shutdown flag for idle workers

Ownership protocol: a shard is *available* when it has a queue marker,
no result, and no fresh lease. Claiming is an ``O_EXCL`` lease create;
a lease whose heartbeat timestamp is older than the job's lease timeout
is *stale* and may be broken (deleted) by anyone — that single rule is
both crash recovery and work stealing. Races are tolerated rather than
prevented: if two workers ever execute the same shard (a stolen lease
whose owner was merely slow), both produce byte-identical results via
the shared content-addressed cache, and the duplicate result write is
an atomic overwrite with the same bytes. Correctness never depends on
exclusion, only on idempotency.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.experiments.progress import parse_progress_line
from repro.util import get_logger, utc_timestamp
from repro.util.atomic import atomic_write_json

__all__ = ["JOB_SCHEMA", "FileTransport", "EventTailer"]

#: Version stamp on ``job.json``; bump on incompatible layout changes.
JOB_SCHEMA = 1

_log = get_logger(__name__)


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


class FileTransport:
    """All coordinator/worker operations over one job directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        # lease-staleness observation memory: shard -> ((ts, mono),
        # observer monotonic time of the last content change). See
        # lease_is_stale for why staleness is judged per *observer*.
        self._lease_obs: Dict[str, Tuple[Tuple[Any, Any], float]] = {}

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def job_path(self) -> Path:
        return self.root / "job.json"

    @property
    def stop_path(self) -> Path:
        return self.root / "stop"

    def queue_path(self, shard_id: str) -> Path:
        return self.root / "queue" / f"{shard_id}.json"

    def lease_path(self, shard_id: str) -> Path:
        return self.root / "leases" / f"{shard_id}.json"

    def result_path(self, shard_id: str) -> Path:
        return self.root / "results" / f"{shard_id}.json"

    def events_path(self, worker_id: str) -> Path:
        return self.root / "events" / f"{worker_id}.jsonl"

    def worker_path(self, worker_id: str) -> Path:
        return self.root / "workers" / f"{worker_id}.json"

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def has_job(self) -> bool:
        return self.job_path.is_file()

    def publish_job(self, job: Mapping[str, Any]) -> None:
        """Write the immutable job description + one queue marker per shard."""
        if self.has_job():
            raise ValueError(f"{self.job_path} already holds a job")
        atomic_write_json(self.job_path, dict(job))
        for shard in job.get("shards", ()):
            atomic_write_json(
                self.queue_path(shard["shard_id"]),
                {"shard_id": shard["shard_id"]},
            )

    def read_job(self) -> Dict[str, Any]:
        job = _read_json(self.job_path)
        if job is None:
            raise ValueError(f"no readable job at {self.job_path}")
        if job.get("schema") != JOB_SCHEMA:
            raise ValueError(
                f"{self.job_path}: unsupported job schema "
                f"{job.get('schema')!r} (supported: {JOB_SCHEMA})"
            )
        return job

    def write_stop(self) -> None:
        self.stop_path.touch()

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except FileNotFoundError:
            pass

    def stopped(self) -> bool:
        return self.stop_path.exists()

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str) -> None:
        atomic_write_json(
            self.worker_path(worker_id),
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "started_utc": utc_timestamp(),
            },
        )

    # ------------------------------------------------------------------
    # leases: claim / heartbeat / steal
    # ------------------------------------------------------------------
    def _read_lease(self, shard_id: str) -> Optional[Dict[str, Any]]:
        return _read_json(self.lease_path(shard_id))

    def heartbeat(self, shard_id: str, worker_id: str) -> None:
        """Refresh (or write) the lease's liveness timestamps atomically.

        Both clocks travel in the lease: ``ts`` (wall) is comparable
        across hosts when clocks are sane, ``mono`` (the writer's
        monotonic clock) only ever advances — so a *changing* lease is
        proof of life even when the writer's wall clock is skewed or
        stepped relative to the observer's.
        """
        atomic_write_json(
            self.lease_path(shard_id),
            {
                "shard": shard_id,
                "worker": worker_id,
                "ts": time.time(),
                "mono": time.monotonic(),
            },
        )

    def lease_is_stale(self, shard_id: str, timeout_s: float) -> bool:
        """True once the lease holder has provably stopped heartbeating.

        Two regimes, keyed on whether the lease carries the ``mono``
        field a real heartbeat always writes:

        * a lease **without** ``mono`` (hand-written, legacy, or with a
          corrupt ``ts``) is judged by wall-clock age alone — corrupt
          timestamps count as stale immediately;
        * a lease **with** ``mono`` is judged by *observation*: it is
          stale only once its content has sat unchanged for
          ``timeout_s`` on this observer's own monotonic clock. A
          heartbeating worker changes the lease every beat, so it is
          never stolen no matter how far its wall clock is skewed or
          stepped from ours; a dead worker's lease freezes and expires
          one observer-timeout after we first see it.
        """
        lease = self._read_lease(shard_id)
        if lease is None:
            self._lease_obs.pop(shard_id, None)
            return False
        ts = lease.get("ts")
        if not isinstance(ts, (int, float)):
            self._lease_obs.pop(shard_id, None)
            return True
        mono = lease.get("mono")
        if not isinstance(mono, (int, float)):
            self._lease_obs.pop(shard_id, None)
            return (time.time() - ts) > timeout_s
        content = (ts, mono)
        now = time.monotonic()
        prev = self._lease_obs.get(shard_id)
        if prev is None or prev[0] != content:
            self._lease_obs[shard_id] = (content, now)
            return False
        return (now - prev[1]) > timeout_s

    def break_lease(self, shard_id: str) -> bool:
        """Delete a lease (stale expiry / dead-worker cleanup)."""
        try:
            self.lease_path(shard_id).unlink()
            return True
        except FileNotFoundError:
            return False

    def leases_of(self, worker_id: str) -> List[str]:
        """Shard ids currently leased to ``worker_id``."""
        held = []
        for path in sorted((self.root / "leases").glob("*.json")):
            lease = _read_json(path)
            if lease is not None and lease.get("worker") == worker_id:
                held.append(path.stem)
        return held

    def queued_shard_ids(self) -> List[str]:
        queue = self.root / "queue"
        if not queue.is_dir():
            return []
        return sorted(p.stem for p in queue.glob("*.json"))

    def claim_shard(
        self, worker_id: str, *, lease_timeout_s: float
    ) -> Optional[str]:
        """Atomically claim one available shard; None when nothing claimable.

        Scans the plan in shard-id order, skipping completed shards and
        fresh leases. A stale lease is broken here — the *next* scan (by
        this or any other worker) races on the vacated ``O_EXCL`` create,
        which is the work-stealing handoff.
        """
        for shard_id in self.queued_shard_ids():
            if self.result_path(shard_id).exists():
                continue
            lease = self.lease_path(shard_id)
            lease.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(str(lease), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self.lease_is_stale(shard_id, lease_timeout_s):
                    self.break_lease(shard_id)
                    _log.info(
                        "%s: broke stale lease on %s", worker_id, shard_id
                    )
                continue
            with os.fdopen(fd, "w") as fh:
                json.dump(
                    {
                        "shard": shard_id,
                        "worker": worker_id,
                        "ts": time.time(),
                        "mono": time.monotonic(),
                    },
                    fh,
                )
            return shard_id
        return None

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def submit_result(
        self,
        shard_id: str,
        worker_id: str,
        records: List[Dict[str, Any]],
    ) -> None:
        """Atomically publish a completed shard's per-point records.

        Duplicate submissions overwrite with identical content (records
        are pure functions of the points), so redelivery is harmless.
        """
        atomic_write_json(
            self.result_path(shard_id),
            {
                "schema": JOB_SCHEMA,
                "shard": shard_id,
                "worker": worker_id,
                "records": records,
            },
        )

    def completed_shard_ids(self) -> List[str]:
        results = self.root / "results"
        if not results.is_dir():
            return []
        return sorted(p.stem for p in results.glob("*.json"))

    def load_result(self, shard_id: str) -> Optional[Dict[str, Any]]:
        result = _read_json(self.result_path(shard_id))
        if result is None or result.get("schema") != JOB_SCHEMA:
            return None
        records = result.get("records")
        return result if isinstance(records, list) else None

    def all_done(self, shard_ids: List[str]) -> bool:
        return all(self.result_path(s).exists() for s in shard_ids)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def open_event_stream(self, worker_id: str):
        """An append-mode text stream for a worker's progress events."""
        path = self.events_path(worker_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "a")

    def event_tailer(self, *, skip_existing: bool = False) -> "EventTailer":
        return EventTailer(self.root / "events", skip_existing=skip_existing)


class EventTailer:
    """Incrementally drains every worker's progress stream in a job dir.

    Tracks a byte offset per file and only consumes *complete* lines
    (a worker may be mid-write), so each event is yielded exactly once
    across any number of :meth:`drain` calls. ``skip_existing`` fast-
    forwards past content already present at construction — the resume
    path, where a previous coordinator already reported those events.
    """

    def __init__(self, events_dir: Path, *, skip_existing: bool = False) -> None:
        self._dir = Path(events_dir)
        self._offsets: Dict[Path, int] = {}
        if skip_existing and self._dir.is_dir():
            for path in self._dir.glob("*.jsonl"):
                self._offsets[path] = path.stat().st_size

    def drain(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(worker_id, event)`` for every newly completed line."""
        if not self._dir.is_dir():
            return
        for path in sorted(self._dir.glob("*.jsonl")):
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue
            end = chunk.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[path] = offset + end + 1
            for line in chunk[: end + 1].decode("utf-8", "replace").splitlines():
                try:
                    event = parse_progress_line(line)
                except ValueError:
                    continue  # foreign/corrupt line: not ours to crash on
                if event is not None:
                    yield path.stem, event
