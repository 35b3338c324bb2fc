"""The fabric flight recorder: causal traces from a job directory.

A fabric run leaves a complete narration of itself on disk — one
``"schema":1`` progress stream per worker under ``events/`` plus the
coordinator's own span stream in ``coordinator.jsonl`` — but each
stream is stamped by its *own* clocks. This module assembles them into
one causal timeline:

1. **Rebase.** Every stream gets a global offset. With tracing on each
   event carries dual stamps (``t_wall``/``t_mono``), so the initial
   offset is the stream's median ``t_wall − t_mono`` — robust to a few
   stepped samples. Offsets are then *raised* along causal edges until
   every known happens-before pair is ordered: the job publish precedes
   each worker's first event, a worker's ``shard_done`` precedes the
   coordinator's ``shard_complete``, a respawn precedes the new
   worker's stream, and a steal victim's last span precedes the
   stealer's claim. Monotonic durations within a stream are preserved
   exactly; only whole streams slide.

2. **Extract shard attempts.** Each worker stream is replayed into
   :class:`ShardAttempt` spans — claim → points → done/fault — and the
   attempt that produced the committed ``results/<shard>.json`` is
   marked, so every executed point is attributable to exactly one
   committed attempt (:attr:`FabricTrace.problems` lists violations).

3. **Derive health.** Queue depth over time, per-worker busy/idle
   utilization, steal/respawn/death counts, straggler shards, and the
   end-to-end critical path: the chain of attempts (same-worker
   succession or steal handoff) ending at the last completed attempt.

The assembled trace exports to the Chrome/Perfetto ``trace_event``
format through the same :class:`~repro.runtime.tracing.TraceLog` +
:func:`~repro.projections.export.write_chrome_trace` pipeline the
simulator uses — one track per worker, one span per attempt, nested
spans per point, instant markers for steals.

Everything here is **read-only** over the job directory; assembling a
trace never perturbs the run (the null-hook doctrine's other half).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.fabric.transport import FileTransport
from repro.experiments.progress import parse_progress_line
from repro.util import get_logger, left_sum

__all__ = [
    "ShardAttempt",
    "FabricTrace",
    "assemble_trace",
    "export_perfetto",
    "fabric_status",
    "format_trace_text",
    "format_status_text",
]

_log = get_logger(__name__)

#: Coordinator stream name in the assembled trace (cannot collide with a
#: worker: worker streams are file stems under ``events/`` and the
#: coordinator writes to ``coordinator.jsonl`` at the job root).
COORDINATOR = "coordinator"

#: Events the coordinator *originates* (vs relays from worker streams).
#: The assembler reads worker events from their own streams, so relayed
#: copies in ``coordinator.jsonl`` are dropped by this whitelist.
_COORDINATOR_KINDS = frozenset(
    {
        "sweep_start",
        "job_published",
        "job_resumed",
        "shard_complete",
        "shard_reassigned",
        "worker_dead",
        "worker_spawned",
        "sweep_done",
        "run_registered",
    }
)

_EPS = 1e-9


@dataclass
class ShardAttempt:
    """One worker's attempt at one shard, on the rebased global clock.

    ``outcome`` is one of ``done`` (result submitted), ``killed`` /
    ``hung`` (a fault span ended the attempt), ``duplicate`` (an
    injected redelivery re-execution), or ``lost`` (the stream ended
    mid-attempt with no fault span — a hard crash). ``committed`` marks
    the attempt whose submission is the shard's result file.
    """

    shard: str
    worker: str
    index: int
    start: float
    end: float
    outcome: str
    points: List[Dict[str, Any]] = field(default_factory=list)
    committed: bool = False

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def label(self) -> str:
        return f"{self.shard}#{self.index}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "worker": self.worker,
            "index": self.index,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "duration_s": round(self.duration, 6),
            "outcome": self.outcome,
            "committed": self.committed,
            "points": len(self.points),
            "executed": sum(1 for p in self.points if not p.get("cached")),
        }


@dataclass
class FabricTrace:
    """A fabric job's merged, clock-rebased causal timeline."""

    fabric_dir: str
    job_name: str
    streams: Dict[str, List[Dict[str, Any]]]
    offsets: Dict[str, float]
    timeline: List[Dict[str, Any]]
    attempts: List[ShardAttempt]
    health: Dict[str, Any]
    critical_path: List[ShardAttempt]
    problems: List[str]

    @property
    def workers(self) -> List[str]:
        return sorted(w for w in self.streams if w != COORDINATOR)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view (events themselves stay on disk)."""
        return {
            "fabric_dir": self.fabric_dir,
            "job_name": self.job_name,
            "workers": self.workers,
            "offsets": {k: round(v, 6) for k, v in self.offsets.items()},
            "events": sum(len(v) for v in self.streams.values()),
            "attempts": [a.to_dict() for a in self.attempts],
            "health": self.health,
            "critical_path": [a.label for a in self.critical_path],
            "problems": list(self.problems),
        }


# ---------------------------------------------------------------------------
# stream reading
# ---------------------------------------------------------------------------


def _read_stream(path: Path) -> List[Dict[str, Any]]:
    """All parseable events of one JSONL stream, in file order.

    Tolerant by design: a fabric worker may die mid-write (that is the
    point of the drills), so malformed lines are skipped, not fatal.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return []
    events: List[Dict[str, Any]] = []
    for line in raw.decode("utf-8", "replace").splitlines():
        try:
            event = parse_progress_line(line)
        except ValueError:
            continue
        if event is not None:
            events.append(event)
    return events


def _load_streams(root: Path) -> Dict[str, List[Dict[str, Any]]]:
    streams: Dict[str, List[Dict[str, Any]]] = {}
    events_dir = root / "events"
    if events_dir.is_dir():
        for path in sorted(events_dir.glob("*.jsonl")):
            events = _read_stream(path)
            if events:
                streams[path.stem] = events
    coord = [
        e
        for e in _read_stream(root / "coordinator.jsonl")
        if e.get("event") in _COORDINATOR_KINDS
    ]
    if coord:
        streams[COORDINATOR] = coord
    return streams


# ---------------------------------------------------------------------------
# clock rebasing
# ---------------------------------------------------------------------------


def _mono(event: Mapping[str, Any]) -> float:
    """The event's position on its stream's monotonic axis.

    ``t_mono`` when the stream was traced; the envelope's ``t`` (offset
    from stream start — also monotonic) otherwise.
    """
    value = event.get("t_mono", event.get("t", 0.0))
    return float(value) if isinstance(value, (int, float)) else 0.0


def _initial_offset(events: List[Dict[str, Any]]) -> float:
    """Median ``t_wall − t_mono``: the stream's wall anchor, or 0."""
    deltas = sorted(
        float(e["t_wall"]) - float(e["t_mono"])
        for e in events
        if isinstance(e.get("t_wall"), (int, float))
        and isinstance(e.get("t_mono"), (int, float))
    )
    return deltas[len(deltas) // 2] if deltas else 0.0


def _relax_offsets(
    streams: Mapping[str, List[Dict[str, Any]]],
    offsets: Dict[str, float],
    edges: List[Tuple[str, int, str, int]],
) -> None:
    """Raise stream offsets until every causal edge is ordered.

    Each edge ``(su, iu, sv, iv)`` asserts event ``iu`` of stream ``su``
    happens before event ``iv`` of stream ``sv``. Violations are fixed
    by sliding the *target* stream later — never by moving a stream
    earlier, so wall anchors act as lower bounds. A full pass that moves
    nothing is a fixpoint; with honest monotonic durations the system is
    feasible and converges within one pass per stream (the pass cap
    guards against a pathological cyclic edge set).
    """
    for _ in range(len(streams) + 2):
        moved = False
        for su, iu, sv, iv in edges:
            gu = _mono(streams[su][iu]) + offsets[su]
            gv = _mono(streams[sv][iv]) + offsets[sv]
            if gu > gv + _EPS:
                offsets[sv] += gu - gv
                moved = True
        if not moved:
            return


def _causal_edges(
    streams: Mapping[str, List[Dict[str, Any]]]
) -> List[Tuple[str, int, str, int]]:
    """Happens-before pairs derivable from the fabric protocol alone."""
    edges: List[Tuple[str, int, str, int]] = []
    coord = streams.get(COORDINATOR, [])
    # anchor on the publish/resume span itself — it is the event that
    # happens-before every worker's first event; sweep_start is only a
    # (weaker) fallback for streams recorded before the job markers
    publish_idx = next(
        (
            i
            for i, e in enumerate(coord)
            if e.get("event") in ("job_published", "job_resumed")
        ),
        None,
    )
    if publish_idx is None:
        publish_idx = next(
            (i for i, e in enumerate(coord) if e.get("event") == "sweep_start"),
            None,
        )
    complete_idx = {
        e.get("shard"): i
        for i, e in enumerate(coord)
        if e.get("event") == "shard_complete"
    }
    spawn_idx = {
        e.get("worker"): i
        for i, e in enumerate(coord)
        if e.get("event") == "worker_spawned"
    }
    for worker, events in streams.items():
        if worker == COORDINATOR or not events:
            continue
        if worker in spawn_idx:
            edges.append((COORDINATOR, spawn_idx[worker], worker, 0))
        elif publish_idx is not None:
            edges.append((COORDINATOR, publish_idx, worker, 0))
        for i, e in enumerate(events):
            if e.get("event") == "shard_done" and e.get("shard") in complete_idx:
                edges.append((worker, i, COORDINATOR, complete_idx[e["shard"]]))
    return edges


# ---------------------------------------------------------------------------
# attempt extraction
# ---------------------------------------------------------------------------


class _RawAttempt:
    """Stream-order skeleton of an attempt (indices, not times)."""

    __slots__ = ("shard", "worker", "start_idx", "end_idx", "point_idxs",
                 "outcome", "opened_by")

    def __init__(self, shard: str, worker: str, start_idx: int, opened_by: str):
        self.shard = shard
        self.worker = worker
        self.start_idx = start_idx
        self.end_idx: Optional[int] = None
        self.point_idxs: List[int] = []
        self.outcome: Optional[str] = None
        self.opened_by = opened_by


def _extract_raw_attempts(
    streams: Mapping[str, List[Dict[str, Any]]]
) -> List[_RawAttempt]:
    raws: List[_RawAttempt] = []
    for worker, events in streams.items():
        if worker == COORDINATOR:
            continue
        open_by_shard: Dict[str, _RawAttempt] = {}

        def close(att: _RawAttempt, idx: Optional[int], outcome: str) -> None:
            if idx is None:
                idx = att.point_idxs[-1] if att.point_idxs else att.start_idx
            att.end_idx = idx
            att.outcome = outcome
            open_by_shard.pop(att.shard, None)

        for i, e in enumerate(events):
            kind = e.get("event")
            shard = e.get("shard")
            if kind == "shard_claimed" and isinstance(shard, str):
                stale = open_by_shard.get(shard)
                if stale is not None:  # pragma: no cover - protocol violation
                    close(stale, None, "lost")
                att = _RawAttempt(shard, worker, i, "claim")
                open_by_shard[shard] = att
                raws.append(att)
            elif kind == "shard_duplicate" and isinstance(shard, str):
                att = _RawAttempt(shard, worker, i, "duplicate")
                open_by_shard[shard] = att
                raws.append(att)
            elif kind == "point_done" and shard in open_by_shard:
                open_by_shard[shard].point_idxs.append(i)
            elif kind == "shard_done" and shard in open_by_shard:
                close(open_by_shard[shard], i, "done")
            elif kind == "fault" and shard in open_by_shard:
                outcome = "killed" if e.get("kind") == "kill" else "hung"
                close(open_by_shard[shard], i, outcome)
        for att in list(open_by_shard.values()):
            close(att, None, "duplicate" if att.opened_by == "duplicate" else "lost")
    return raws


def _steal_edges(
    raws: List[_RawAttempt],
    streams: Mapping[str, List[Dict[str, Any]]],
    offsets: Mapping[str, float],
) -> List[Tuple[str, int, str, int]]:
    """Per shard: each failed attempt precedes the next attempt's claim.

    The fabric only re-claims a shard after its previous lease died, so
    attempts at one shard are totally ordered. Victims (non-``done``
    outcomes) are ordered by their provisional start and chained before
    any finishing attempt — robust to clock skew because the *structure*
    (who failed, who finished) does not depend on timestamps.
    """
    edges: List[Tuple[str, int, str, int]] = []
    by_shard: Dict[str, List[_RawAttempt]] = {}
    for att in raws:
        by_shard.setdefault(att.shard, []).append(att)

    def g(att: _RawAttempt, idx: int) -> float:
        return _mono(streams[att.worker][idx]) + offsets[att.worker]

    for chain in by_shard.values():
        if len(chain) < 2:
            continue
        victims = sorted(
            (a for a in chain if a.outcome != "done"),
            key=lambda a: g(a, a.start_idx),
        )
        finishers = sorted(
            (a for a in chain if a.outcome == "done"),
            key=lambda a: g(a, a.start_idx),
        )
        ordered = victims + finishers
        for prev, nxt in zip(ordered, ordered[1:]):
            if prev.worker != nxt.worker and prev.end_idx is not None:
                edges.append(
                    (prev.worker, prev.end_idx, nxt.worker, nxt.start_idx)
                )
    return edges


# ---------------------------------------------------------------------------
# health metrics
# ---------------------------------------------------------------------------


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _queue_depth_series(
    timeline: List[Dict[str, Any]], total_shards: int
) -> List[List[float]]:
    """(t, unclaimed-shard count) samples from the merged timeline."""
    state: Dict[str, str] = {}
    depth = total_shards
    series: List[List[float]] = []
    for event in timeline:
        kind = event.get("event")
        shard = event.get("shard")
        if not isinstance(shard, str):
            continue
        prev = state.get(shard, "queued")
        if kind == "shard_claimed" and prev == "queued":
            state[shard] = "claimed"
            depth -= 1
        elif kind == "shard_reassigned" and prev == "claimed":
            state[shard] = "queued"
            depth += 1
        elif kind == "shard_done":
            if prev != "done":
                state[shard] = "done"
                if prev == "queued":  # pragma: no cover - protocol violation
                    depth -= 1
        else:
            continue
        series.append([round(float(event.get("g", 0.0)), 6), depth])
    return series


def _critical_path(attempts: List[ShardAttempt]) -> List[ShardAttempt]:
    """Backward walk from the last-finishing attempt.

    The predecessor of an attempt is whichever ends latest of (a) the
    same worker's previous attempt (the worker was busy elsewhere) and
    (b) the same shard's previous attempt (the steal handoff this claim
    waited on). The chain ending at the overall last finish *is* the
    run's end-to-end critical path through claims.
    """
    if not attempts:
        return []
    current = max(attempts, key=lambda a: a.end)
    chain = [current]
    visited = {id(current)}
    while True:
        preds = [
            a
            for a in attempts
            if id(a) not in visited
            and a.end <= current.start + _EPS
            and (a.worker == current.worker or a.shard == current.shard)
        ]
        if not preds:
            break
        current = max(preds, key=lambda a: a.end)
        chain.append(current)
        visited.add(id(current))
    chain.reverse()
    return chain


def _health(
    streams: Mapping[str, List[Dict[str, Any]]],
    timeline: List[Dict[str, Any]],
    attempts: List[ShardAttempt],
    total_shards: int,
    critical_path: List[ShardAttempt],
) -> Dict[str, Any]:
    coord = streams.get(COORDINATOR, [])
    workers = sorted(w for w in streams if w != COORDINATOR)
    span_end = max((float(e.get("g", 0.0)) for e in timeline), default=0.0)

    utilization: Dict[str, Dict[str, float]] = {}
    for worker in workers:
        events = streams[worker]
        first = float(events[0].get("g", 0.0))
        last = float(events[-1].get("g", 0.0))
        busy = left_sum(a.duration for a in attempts if a.worker == worker)
        span = max(0.0, last - first)
        utilization[worker] = {
            "busy_s": round(busy, 6),
            "span_s": round(span, 6),
            "utilization": round(busy / span, 4) if span > 0 else 0.0,
        }

    steals = sum(1 for e in coord if e.get("event") == "shard_reassigned")
    if not coord:
        claims: Dict[str, int] = {}
        for a in attempts:
            if a.outcome != "duplicate":
                claims[a.shard] = claims.get(a.shard, 0) + 1
        steals = sum(n - 1 for n in claims.values() if n > 1)

    committed_walls = [
        (a, a.duration) for a in attempts if a.committed and a.duration > 0
    ]
    median_wall = _median([w for _a, w in committed_walls])
    stragglers = [
        {
            "shard": a.shard,
            "worker": a.worker,
            "duration_s": round(w, 6),
            "median_s": round(median_wall, 6),
        }
        for a, w in committed_walls
        if median_wall > 0 and w > 2.0 * median_wall
    ]

    path_busy = left_sum(a.duration for a in critical_path)
    return {
        "workers": len(workers),
        "shards": total_shards,
        "attempts": len(attempts),
        "committed": sum(1 for a in attempts if a.committed),
        "steals": steals,
        "respawns": sum(
            1
            for e in coord
            if e.get("event") == "worker_spawned" and e.get("respawn")
        ),
        "worker_deaths": sum(
            1 for e in coord if e.get("event") == "worker_dead"
        ),
        "faults": {
            "kill": sum(
                1 for a in attempts if a.outcome == "killed"
            ),
            "hang": sum(1 for a in attempts if a.outcome == "hung"),
            "duplicate": sum(
                1 for a in attempts if a.outcome == "duplicate"
            ),
        },
        "span_s": round(span_end, 6),
        "utilization": utilization,
        "queue_depth": _queue_depth_series(timeline, total_shards),
        "stragglers": stragglers,
        "critical_path_s": round(path_busy, 6),
        "critical_path_frac": (
            round(path_busy / span_end, 4) if span_end > 0 else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble_trace(fabric_dir: Union[str, Path]) -> FabricTrace:
    """Merge a job directory's streams into one causal timeline.

    Raises ``ValueError`` when the directory holds no job.
    """
    root = Path(fabric_dir)
    transport = FileTransport(root)
    if not transport.has_job():
        raise ValueError(f"no fabric job at {root}")
    job = transport.read_job()
    shard_ids = [str(s["shard_id"]) for s in job.get("shards", ())]

    streams = _load_streams(root)
    offsets = {name: _initial_offset(events) for name, events in streams.items()}

    # pass 1: protocol edges (publish/spawn/complete) fix gross skew
    _relax_offsets(streams, offsets, _causal_edges(streams))
    # pass 2: steal handoffs, ordered by the now-plausible clock
    raws = _extract_raw_attempts(streams)
    steal_edges = _steal_edges(raws, streams, offsets)
    if steal_edges:
        _relax_offsets(
            streams, offsets, _causal_edges(streams) + steal_edges
        )

    # stamp the rebased global time onto every event, origin at 0
    g_min = min(
        (
            _mono(e) + offsets[name]
            for name, events in streams.items()
            for e in events
        ),
        default=0.0,
    )
    for name, events in streams.items():
        for e in events:
            e["g"] = round(_mono(e) + offsets[name] - g_min, 6)
    offsets = {name: off - g_min for name, off in offsets.items()}

    timeline = sorted(
        (dict(e, stream=name) for name, events in streams.items() for e in events),
        key=lambda e: (e["g"], e["stream"]),
    )

    # materialise attempts on the global clock, numbering per shard
    per_shard: Dict[str, List[_RawAttempt]] = {}
    for raw in raws:
        per_shard.setdefault(raw.shard, []).append(raw)
    attempts: List[ShardAttempt] = []
    raw_to_attempt: Dict[int, ShardAttempt] = {}
    for shard, chain in per_shard.items():
        chain.sort(key=lambda r: streams[r.worker][r.start_idx]["g"])
        for n, raw in enumerate(chain, start=1):
            events = streams[raw.worker]
            att = ShardAttempt(
                shard=shard,
                worker=raw.worker,
                index=n,
                start=events[raw.start_idx]["g"],
                end=events[raw.end_idx]["g"],
                outcome=raw.outcome or "lost",
                points=[events[i] for i in raw.point_idxs],
            )
            attempts.append(att)
            raw_to_attempt[id(raw)] = att
    attempts.sort(key=lambda a: (a.start, a.shard, a.index))

    # commit attribution + validation against the result files
    problems: List[str] = []
    for shard in shard_ids:
        result = transport.load_result(shard)
        if result is None:
            continue
        owner = str(result.get("worker"))
        candidates = [
            a
            for a in attempts
            if a.shard == shard
            and a.worker == owner
            and a.outcome in ("done", "duplicate")
        ]
        if not candidates:
            problems.append(
                f"{shard}: result committed by {owner!r} but no completed "
                "attempt by that worker appears in the streams"
            )
            continue
        committed = next(
            (a for a in candidates if a.outcome == "done"), candidates[0]
        )
        committed.committed = True
        executed_keys = {
            str(rec["key"])
            for rec in result.get("records", ())
            if not rec.get("cached")
        }
        attempt_keys = {
            str(p.get("key"))
            for p in committed.points
            if not p.get("cached")
        }
        missing = executed_keys - attempt_keys
        if missing:
            problems.append(
                f"{shard}: {len(missing)} executed point(s) not narrated by "
                f"the committed attempt {committed.label}"
            )

    critical_path = _critical_path(attempts)
    health = _health(streams, timeline, attempts, len(shard_ids), critical_path)
    return FabricTrace(
        fabric_dir=str(root),
        job_name=str(job.get("name", root.name)),
        streams=streams,
        offsets=offsets,
        timeline=timeline,
        attempts=attempts,
        health=health,
        critical_path=critical_path,
        problems=problems,
    )


# ---------------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------------


def export_perfetto(trace: FabricTrace, path: Union[str, Path]) -> int:
    """Write the trace as Chrome/Perfetto ``trace_event`` JSON.

    One track ("thread") per worker, a complete span per shard attempt,
    nested spans per executed point, and an instant marker per steal
    handoff — all through the simulator's own
    :func:`~repro.projections.export.write_chrome_trace`, so the output
    honours the same format invariants the trace-format tests enforce.
    Returns the number of trace events written.
    """
    from repro.projections.export import write_chrome_trace
    from repro.runtime.tracing import MigrationEvent, TaskEvent, TraceLog

    ordinal = {worker: i for i, worker in enumerate(trace.workers)}
    log = TraceLog(enabled=True)
    log.core_names = {i: worker for worker, i in ordinal.items()}

    tasks: List[TaskEvent] = []
    for attempt in trace.attempts:
        tid = ordinal[attempt.worker]
        cpu = left_sum(
            float(p.get("wall_s", 0.0))
            for p in attempt.points
            if not p.get("cached")
        )
        tasks.append(
            TaskEvent(
                core_id=tid,
                chare=(f"{attempt.shard} ({attempt.outcome})", attempt.index),
                iteration=attempt.index,
                start=attempt.start,
                end=max(attempt.end, attempt.start),
                cpu_time=cpu,
            )
        )
        for p in attempt.points:
            end = float(p["g"])
            wall = float(p.get("wall_s", 0.0))
            start = min(max(attempt.start, end - wall), end)
            tasks.append(
                TaskEvent(
                    core_id=tid,
                    chare=(str(p.get("label", "?")), attempt.index),
                    iteration=attempt.index,
                    start=start,
                    end=end,
                    cpu_time=wall,
                )
            )
    for task in sorted(tasks, key=lambda t: (t.start, t.core_id)):
        log.add_task(task)

    handoffs: List[MigrationEvent] = []
    by_shard: Dict[str, List[ShardAttempt]] = {}
    for attempt in trace.attempts:
        if attempt.outcome != "duplicate":
            by_shard.setdefault(attempt.shard, []).append(attempt)
    for chain in by_shard.values():
        chain.sort(key=lambda a: a.index)
        for prev, nxt in zip(chain, chain[1:]):
            if prev.worker != nxt.worker:
                handoffs.append(
                    MigrationEvent(
                        time=nxt.start,
                        chare=(nxt.shard, nxt.index),
                        src=ordinal[prev.worker],
                        dst=ordinal[nxt.worker],
                        state_bytes=0.0,
                    )
                )
    for handoff in sorted(handoffs, key=lambda m: m.time):
        log.add_migration(handoff)

    return write_chrome_trace(log, str(path), job_name=trace.job_name)


# ---------------------------------------------------------------------------
# live status
# ---------------------------------------------------------------------------


def _last_event(path: Path) -> Optional[Dict[str, Any]]:
    """The final complete event of a stream (cheap tail read)."""
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            fh.seek(max(0, size - 65536))
            chunk = fh.read()
    except OSError:
        return None
    last = None
    for line in chunk.decode("utf-8", "replace").splitlines():
        try:
            event = parse_progress_line(line)
        except ValueError:
            continue
        if event is not None:
            last = event
    return last


def fabric_status(fabric_dir: Union[str, Path]) -> Dict[str, Any]:
    """A point-in-time snapshot of a fabric job directory.

    Read-only over ``queue/``, ``leases/``, ``results/``, ``workers/``
    and the event streams — safe to run against a *live* job from any
    host that shares the directory. Lease ages are measured against
    this observer's wall clock (an approximation the staleness rule
    itself refuses to rely on; good enough for eyeballs).
    """
    root = Path(fabric_dir)
    transport = FileTransport(root)
    if not transport.has_job():
        raise ValueError(f"no fabric job at {root}")
    job = transport.read_job()
    shard_ids = [str(s["shard_id"]) for s in job.get("shards", ())]
    done = set(transport.completed_shard_ids())

    now = time.time()
    leases: List[Dict[str, Any]] = []
    leases_dir = root / "leases"
    if leases_dir.is_dir():
        for path in sorted(leases_dir.glob("*.json")):
            shard = path.stem
            if shard in done:
                continue
            try:
                age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue
            try:
                with open(path) as fh:
                    lease = json.load(fh)
            except (OSError, ValueError):
                lease = {}
            leases.append(
                {
                    "shard": shard,
                    "worker": lease.get("worker"),
                    "age_s": round(age, 3),
                }
            )
    leased = {entry["shard"] for entry in leases}
    queued = [s for s in shard_ids if s not in done and s not in leased]

    workers: List[Dict[str, Any]] = []
    workers_dir = root / "workers"
    if workers_dir.is_dir():
        for path in sorted(workers_dir.glob("*.json")):
            try:
                with open(path) as fh:
                    registration = json.load(fh)
            except (OSError, ValueError):
                registration = {"worker": path.stem}
            last = _last_event(transport.events_path(path.stem))
            workers.append(
                {
                    "worker": str(registration.get("worker", path.stem)),
                    "pid": registration.get("pid"),
                    "host": registration.get("host"),
                    "last_event": None if last is None else last.get("event"),
                    "last_t": None if last is None else last.get("t"),
                }
            )

    return {
        "fabric_dir": str(root),
        "name": str(job.get("name", root.name)),
        "points": len(job.get("points", ())),
        "shards": len(shard_ids),
        "done": len(done),
        "leased": leases,
        "queued": queued,
        "workers": workers,
        "stopped": transport.stopped(),
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

_BAR_WIDTH = 24


def _bar(frac: float, width: int = _BAR_WIDTH) -> str:
    filled = max(0, min(width, int(round(frac * width))))
    return "#" * filled + "." * (width - filled)


def format_trace_text(trace: FabricTrace) -> str:
    """Human-oriented rendering of an assembled trace."""
    health = trace.health
    lines = [
        f"fabric trace: {trace.job_name} ({trace.fabric_dir})",
        (
            f"  {health['workers']} worker(s), {health['shards']} shard(s), "
            f"{health['attempts']} attempt(s) "
            f"({health['committed']} committed), span {health['span_s']:.3f}s"
        ),
        (
            f"  steals={health['steals']} respawns={health['respawns']} "
            f"deaths={health['worker_deaths']} "
            f"faults: kill={health['faults']['kill']} "
            f"hang={health['faults']['hang']} "
            f"dup={health['faults']['duplicate']}"
        ),
        "  utilization:",
    ]
    for worker in trace.workers:
        stats = health["utilization"][worker]
        lines.append(
            f"    {worker:<12} [{_bar(stats['utilization'])}] "
            f"{stats['utilization'] * 100:5.1f}%  "
            f"busy {stats['busy_s']:.3f}s / span {stats['span_s']:.3f}s"
        )
    if health["stragglers"]:
        lines.append("  stragglers (wall > 2x median):")
        for s in health["stragglers"]:
            lines.append(
                f"    {s['shard']} on {s['worker']}: {s['duration_s']:.3f}s "
                f"(median {s['median_s']:.3f}s)"
            )
    lines.append(
        f"  critical path ({health['critical_path_s']:.3f}s, "
        f"{health['critical_path_frac'] * 100:.0f}% of span):"
    )
    for attempt in trace.critical_path:
        lines.append(
            f"    {attempt.start:8.3f}s  {attempt.label:<14} on "
            f"{attempt.worker:<8} {attempt.duration:7.3f}s  {attempt.outcome}"
        )
    if trace.problems:
        lines.append("  PROBLEMS:")
        for problem in trace.problems:
            lines.append(f"    ! {problem}")
    else:
        lines.append(
            "  causality: every executed point attributed to exactly one "
            "committed attempt"
        )
    return "\n".join(lines)


def format_status_text(status: Mapping[str, Any]) -> str:
    """Human-oriented rendering of a live status snapshot."""
    done, shards = status["done"], status["shards"]
    frac = done / shards if shards else 1.0
    lines = [
        f"fabric status: {status['name']} ({status['fabric_dir']})",
        (
            f"  shards [{_bar(frac)}] {done}/{shards} done, "
            f"{len(status['leased'])} leased, {len(status['queued'])} queued"
            + ("  [stop flag raised]" if status["stopped"] else "")
        ),
    ]
    for lease in status["leased"]:
        lines.append(
            f"    lease {lease['shard']} -> {lease['worker']} "
            f"(refreshed {lease['age_s']:.1f}s ago)"
        )
    if status["workers"]:
        lines.append(f"  workers ({len(status['workers'])}):")
        for w in status["workers"]:
            last = (
                f"last event {w['last_event']!r} at t={w['last_t']}"
                if w["last_event"]
                else "no events yet"
            )
            lines.append(
                f"    {w['worker']:<12} pid={w['pid']} host={w['host']} {last}"
            )
    return "\n".join(lines)
