"""Trace export to the Chrome/Perfetto ``trace_event`` format.

The ASCII renderer is for terminals; for interactive inspection this
module converts a :class:`~repro.runtime.tracing.TraceLog` into the JSON
array flavour of the Trace Event Format understood by ``chrome://tracing``
and https://ui.perfetto.dev — one "process" per job, one "thread" per
core, a complete ("X") event per task execution, instant events for
migrations, and flow-free duration events for LB steps.

Times are exported in microseconds, as the format requires.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.perf.profiler import PhaseProfiler, phase_trace_events
from repro.runtime.tracing import TraceLog
from repro.util.atomic import atomic_write

__all__ = [
    "to_trace_events",
    "audit_counter_events",
    "ledger_counter_events",
    "lineage_counter_events",
    "write_chrome_trace",
]

_US = 1e6  # seconds -> microseconds

#: Events per ``json.dumps`` call when writing a trace: each call runs
#: CPython's C encoder (``json.dump`` never does), and a bounded batch
#: keeps the encoded text small next to the event list itself.
_BATCH = 256


def to_trace_events(
    trace: TraceLog,
    *,
    job_name: str = "app",
    pid: int = 1,
) -> List[Dict[str, Any]]:
    """Convert a trace log to a list of trace-event dicts.

    Parameters
    ----------
    trace:
        The runtime's event log (``tracing=True`` runs).
    job_name:
        Process name shown in the viewer.
    pid:
        Process id to assign (use distinct pids to overlay several jobs).
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": job_name},
        }
    ]
    cores = sorted({t.core_id for t in trace.tasks})
    for cid in cores:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": cid,
                "args": {"name": trace.core_names.get(cid, f"core {cid}")},
            }
        )
    for t in trace.tasks:
        events.append(
            {
                "name": f"{t.chare[0]}[{t.chare[1]}]",
                "cat": "task",
                "ph": "X",
                "pid": pid,
                "tid": t.core_id,
                "ts": t.start * _US,
                "dur": (t.end - t.start) * _US,
                "args": {
                    "iteration": t.iteration,
                    "cpu_time_s": t.cpu_time,
                    "wall_time_s": t.end - t.start,
                },
            }
        )
    for m in trace.migrations:
        events.append(
            {
                "name": f"migrate {m.chare[0]}[{m.chare[1]}] {m.src}->{m.dst}",
                "cat": "migration",
                "ph": "i",
                "s": "p",  # process-scoped instant
                "pid": pid,
                "tid": m.src,
                "ts": m.time * _US,
                "args": {"state_bytes": m.state_bytes, "dst": m.dst},
            }
        )
    for step in trace.lb_steps:
        events.append(
            {
                "name": f"LB step ({step.num_migrations} migrations)",
                "cat": "lb",
                "ph": "X",
                "pid": pid,
                "tid": cores[0] if cores else 0,
                "ts": step.time * _US,
                "dur": max(step.migration_cost_s, 1e-6) * _US,
                "args": {
                    "iteration": step.iteration,
                    "t_avg": step.t_avg,
                    "max_load": step.max_load,
                },
            }
        )
    return events


def audit_counter_events(
    records: Sequence[Mapping[str, Any]],
    *,
    pid: int = 1,
) -> List[Dict[str, Any]]:
    """Perfetto counter ("C") tracks from LB audit records.

    One sample per committed LB step for each of:

    * ``per-core load (s)`` — every core's Σ t_i + O_p as its own series;
    * ``O_p estimated (s)`` / ``O_p true (s)`` — the Eq. (2) background
      estimate next to the injected ground truth, per core;
    * ``migrations (cumulative)`` — running migration count.

    Records without a committed simulated time (balancer driven outside a
    runtime) are skipped; a missing ``bg_true`` drops only that series'
    sample, never the whole record.
    """
    events: List[Dict[str, Any]] = []
    total_migrations = 0
    for record in records:
        t = record.get("time")
        total_migrations += int(record.get("num_migrations", 0))
        if t is None:
            continue
        ts = float(t) * _US
        load = {f"core{c['core']}": c["load"] for c in record.get("cores", ())}
        est = {f"core{c['core']}": c["bg_est"] for c in record.get("cores", ())}
        true = {
            f"core{c['core']}": c["bg_true"]
            for c in record.get("cores", ())
            if c.get("bg_true") is not None
        }
        for name, args in (
            ("per-core load (s)", load),
            ("O_p estimated (s)", est),
            ("O_p true (s)", true),
            ("migrations (cumulative)", {"count": total_migrations}),
        ):
            if not args:
                continue
            events.append(
                {
                    "name": name,
                    "cat": "lb-audit",
                    "ph": "C",
                    "pid": pid,
                    "ts": ts,
                    "args": args,
                }
            )
    return events


def ledger_counter_events(
    summary: Mapping[str, Any],
    *,
    pid: int = 1,
) -> List[Dict[str, Any]]:
    """Perfetto counter ("C") tracks from a time-ledger summary.

    One ``time ledger (core-s)`` sample per application iteration, with
    the four attribution buckets (compute / stolen / overhead / idle) as
    stacked series — the viewer renders them as one area chart, so phase
    changes (an interfering job arriving, an LB step paying off) show up
    as visible re-slicing of the per-iteration core-seconds.

    ``summary`` is :meth:`repro.obs.ledger.TimeLedger.summary` output (or
    the equal dict stored on cache entries / registry points).
    """
    events: List[Dict[str, Any]] = []
    for row in summary.get("per_iteration", ()):
        events.append(
            {
                "name": "time ledger (core-s)",
                "cat": "ledger",
                "ph": "C",
                "pid": pid,
                "ts": float(row["start_s"]) * _US,
                "args": {
                    "compute": row["compute"],
                    "stolen": row["stolen"],
                    "overhead": row["overhead"],
                    "idle": row["idle"],
                },
            }
        )
    return events


def lineage_counter_events(
    payload: Mapping[str, Any],
    *,
    pid: int = 1,
) -> List[Dict[str, Any]]:
    """Perfetto counter ("C") tracks from a lineage payload.

    Two tracks, one sample per application iteration:

    * ``imbalance`` — λ (max/avg), CoV and Gini as parallel series, so
      an LB step paying off shows as all three dropping together;
    * ``per-chare load by core (s)`` — each core's summed app CPU for
      the iteration as its own series (the raw signal behind λ).

    ``payload`` is :meth:`repro.obs.lineage.LineageRecorder.payload`
    output (or the equal dict stored on cache entries / registry
    points).
    """
    events: List[Dict[str, Any]] = []
    for row in payload.get("per_iteration", ()):
        ts = float(row["start_s"]) * _US
        events.append(
            {
                "name": "imbalance",
                "cat": "lineage",
                "ph": "C",
                "pid": pid,
                "ts": ts,
                "args": {
                    "lambda": row["lambda"],
                    "cov": row["cov"],
                    "gini": row["gini"],
                },
            }
        )
        events.append(
            {
                "name": "per-chare load by core (s)",
                "cat": "lineage",
                "ph": "C",
                "pid": pid,
                "ts": ts,
                "args": {f"core{c}": v for c, v in row["loads"].items()},
            }
        )
    return events


def write_chrome_trace(
    trace: TraceLog,
    path: str,
    *,
    job_name: str = "app",
    extra: Optional[Sequence[TraceLog]] = None,
    audit: Optional[Sequence[Mapping[str, Any]]] = None,
    profile: Optional[Union[PhaseProfiler, Mapping[str, Any]]] = None,
    ledger: Optional[Mapping[str, Any]] = None,
    lineage: Optional[Mapping[str, Any]] = None,
) -> int:
    """Write ``trace`` (plus optional co-scheduled jobs) as JSON.

    Returns the number of events written. ``extra`` traces get their own
    process lanes (pid 2, 3, ...); ``audit`` records add counter tracks
    (per-core load, O_p estimated/true, cumulative migrations) to the
    main job's lane; ``ledger`` (a time-ledger summary dict) adds the
    per-iteration attribution buckets as one stacked counter track;
    ``lineage`` (a lineage payload dict) adds per-iteration imbalance
    (λ/CoV/Gini) and per-core load counter tracks;
    ``profile`` (a :class:`PhaseProfiler` or its exported dict) adds the
    host wall-clock phase breakdown as its own process lane.
    Simulated-time and host-time lanes share one timeline axis but not
    an origin — compare durations, not positions.

    The file is byte-identical to ``json.dump(events, fh)``. It is
    written to a temporary sibling and renamed into place, so a sweep
    killed mid-export never leaves a truncated trace at ``path``.
    """
    events = to_trace_events(trace, job_name=job_name, pid=1)
    for i, other in enumerate(extra or (), start=2):
        events.extend(to_trace_events(other, job_name=f"job-{i}", pid=i))
    if audit:
        events.extend(audit_counter_events(audit, pid=1))
    if ledger is not None:
        events.extend(ledger_counter_events(ledger, pid=1))
    if lineage is not None:
        events.extend(lineage_counter_events(lineage, pid=1))
    if profile is not None:
        events.extend(phase_trace_events(profile))
    _write_json_array(events, path)
    return len(events)


def _write_json_array(items: Sequence[Any], path: str) -> None:
    """Atomically write ``items`` as the text ``json.dumps(items)``.

    Batches of at most :data:`_BATCH` items are encoded one
    ``json.dumps`` call each and joined with the encoder's own ``", "``
    item separator.
    """
    with atomic_write(path, ".json.tmp") as fh:
        fh.write("[")
        for start in range(0, len(items), _BATCH):
            if start:
                fh.write(", ")
            fh.write(json.dumps(items[start:start + _BATCH])[1:-1])
        fh.write("]")
