"""Structured sweep progress: JSON-lines events and aggregate metrics.

The sweep engine narrates a run as a stream of flat JSON objects — one
line per event — so a sweep can be followed (``tail -f``) and
post-processed (wall-time per scenario, worker utilisation, cache hit
rate) without parsing human-oriented tables. Events carry a monotonic
``t`` offset in seconds from sweep start, never wall-clock dates, so
logs diff cleanly between runs.

Event vocabulary (all fields JSON scalars):

* ``sweep_start`` — ``spec``, ``points``, ``workers``, ``cached``
* ``point_start`` — ``label``, ``key``
* ``point_done`` — ``label``, ``key``, ``cached``, ``wall_s``, ``worker``
* ``sweep_done`` — the :class:`SweepMetrics` fields

Every event carries ``"schema": 1`` (:data:`PROGRESS_SCHEMA`) so log
consumers can detect vocabulary changes; the number bumps on any
incompatible change to event names or fields. *Additive* changes — new
event types, new fields on existing events — keep the number, so
consumers must ignore anything they do not recognise
(:func:`parse_progress_line`, the format's reader, enforces only the
envelope, never the full vocabulary).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TextIO, Union

from repro.util import get_logger

__all__ = [
    "PROGRESS_SCHEMA",
    "SweepMetrics",
    "EventLog",
    "parse_progress_line",
    "read_progress_jsonl",
]

#: Version stamp on every progress event.
PROGRESS_SCHEMA = 1

_log = get_logger(__name__)


@dataclass(frozen=True)
class SweepMetrics:
    """Aggregate measurements of one sweep execution.

    Attributes
    ----------
    points:
        Total scenarios in the expanded spec.
    executed:
        Scenarios actually simulated (misses).
    cache_hits:
        Scenarios served from the on-disk cache.
    elapsed_s:
        Wall-clock of the whole sweep (expansion to last result).
    executed_wall_s:
        Summed per-scenario simulation wall time (across all workers).
    workers:
        Worker processes requested (1 = in-process serial).
    worker_utilization:
        ``executed_wall_s / (workers * elapsed_s)`` — the fraction of the
        worker pool's capacity spent simulating. 0.0 when nothing ran.
    """

    points: int
    executed: int
    cache_hits: int
    elapsed_s: float
    executed_wall_s: float
    workers: int
    worker_utilization: float

    @property
    def hit_rate(self) -> float:
        """Cache hits / points (0.0 for an empty sweep)."""
        return self.cache_hits / self.points if self.points else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "points": self.points,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "elapsed_s": self.elapsed_s,
            "executed_wall_s": self.executed_wall_s,
            "workers": self.workers,
            "worker_utilization": self.worker_utilization,
        }


class EventLog:
    """Accumulates sweep events; optionally mirrors them as JSON lines.

    Parameters
    ----------
    stream:
        Writable text stream for the JSONL mirror (e.g. an open file or
        ``sys.stderr``). None keeps events in memory only.
    on_event:
        Optional callback fired with every record as it is emitted, so
        a caller can watch a sweep in-process (the benchmark times a
        reference kernel at every point start this way). None — the
        default — keeps the emit path at a single falsy check, so
        observation stays opt-in.

    Emission is thread-safe: the append + stream write + callback runs
    under one lock, so a log shared between threads never interleaves
    two records' lines or reorders them against ``events``.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        *,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self._stream = stream
        self._on_event = on_event
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record (and optionally write) one event; returns the record."""
        record = {
            "schema": PROGRESS_SCHEMA,
            "event": event,
            "t": round(time.monotonic() - self._t0, 6),
        }
        record.update(fields)
        with self._lock:
            self.events.append(record)
            if self._stream is not None:
                self._stream.write(json.dumps(record, sort_keys=True) + "\n")
                self._stream.flush()
            if self._on_event is not None:
                self._on_event(record)
        return record

    def of_type(self, event: str) -> List[Dict[str, Any]]:
        """All recorded events of one type, in emission order."""
        return [e for e in self.events if e["event"] == event]


# ---------------------------------------------------------------------------
# consuming a progress stream
# ---------------------------------------------------------------------------


def parse_progress_line(line: str) -> Optional[Dict[str, Any]]:
    """One JSONL progress line -> event dict (None for a blank line).

    Validates only the **envelope** — a JSON object with a string
    ``event`` name and a supported ``schema`` stamp — never the per-event
    field vocabulary, so events that grow new fields (or entirely new
    event types) still parse: forward compatibility is the consumer's
    contract. Raises ``ValueError`` on non-JSON, a non-object record, a
    missing/non-string ``event``, or an unsupported ``schema``.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError("progress event is not a JSON object")
    if not isinstance(record.get("event"), str):
        raise ValueError("progress event has no string 'event' field")
    schema = record.get("schema")
    if schema != PROGRESS_SCHEMA:
        raise ValueError(
            f"unsupported progress schema {schema!r} "
            f"(supported: {PROGRESS_SCHEMA})"
        )
    return record


def read_progress_jsonl(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, Any]]:
    """Load a progress JSONL file back into a list of event dicts.

    Mirrors the audit reader's truncation policy: a malformed **final**
    line after at least one valid event (a writer killed mid-line) is
    skipped with a warning; a malformed line anywhere else raises
    ``ValueError`` — the file is not a progress log.
    """
    with open(path) as fh:
        lines = fh.readlines()
    last_content = 0
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            last_content = line_no
    events: List[Dict[str, Any]] = []
    for line_no, line in enumerate(lines, start=1):
        try:
            record = parse_progress_line(line)
        except ValueError as exc:
            if line_no == last_content and events:
                _log.warning(
                    "%s:%d: skipping malformed trailing line (%s) — "
                    "likely a truncated write", path, line_no, exc,
                )
                break
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
        if record is not None:
            events.append(record)
    return events
