"""Trace export to the Chrome/Perfetto ``trace_event`` format.

The ASCII renderer is for terminals; for interactive inspection this
module converts a :class:`~repro.runtime.tracing.TraceLog` into the JSON
array flavour of the Trace Event Format understood by ``chrome://tracing``
and https://ui.perfetto.dev — one "process" per job, one "thread" per
core, a complete ("X") event per task execution, instant events for
migrations, and flow-free duration events for LB steps.

Times are exported in microseconds, as the format requires.

:func:`to_trace_events` builds the events as dicts. :func:`write_chrome_trace`
streams the same events as JSON text instead: each task slice, about
99% of a trace's events, is written straight from its
:class:`~repro.runtime.tracing.TaskEvent` with the C encoder's own
formats (``float.__repr__`` for floats), and every other event goes
through ``json.dumps``. The file is byte-identical to ``json.dumps`` of
the dict list, at under half its cost.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.tracing import TaskEvent, TraceLog
from repro.util.atomic import atomic_write

__all__ = [
    "to_trace_events",
    "audit_counter_events",
    "ledger_counter_events",
    "lineage_counter_events",
    "write_chrome_trace",
]

_US = 1e6  # seconds -> microseconds

#: Encoded events per write when streaming a trace: the file is written
#: in joined batches of this many event texts, so an export holds one
#: batch of text at a time, never the event list or the whole document.
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
    before, after = _lane_events(trace, job_name, pid)
    return before + [_task_event(t, pid) for t in trace.tasks] + after


def _task_event(t: TaskEvent, pid: int) -> Dict[str, Any]:
    """One task's complete ("X") event: :func:`to_trace_events`' dict,
    and what the streaming encoder falls back to."""
    return {
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


def _lane_events(
    trace: TraceLog, job_name: str, pid: int
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """A job lane's events around its tasks: the process and thread
    names before them, the migrations and LB steps after them."""
    before: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": job_name},
        }
    ]
    cores = sorted({t.core_id for t in trace.tasks})
    for cid in cores:
        before.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": cid,
                "args": {"name": f"core {cid}"},
            }
        )
    after: List[Dict[str, Any]] = []
    for m in trace.migrations:
        after.append(
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
        after.append(
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
    return before, after


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
    (λ/CoV/Gini) and per-core load counter tracks. Every lane is in
    simulated time, so identical runs write identical files.

    The file is byte-identical to ``json.dumps`` of the lanes'
    :func:`to_trace_events` lists followed by the counter events, but
    it is streamed: task slices are encoded straight from their
    ``TaskEvent`` tuples, and the text goes out in batches of
    :data:`_BATCH` events, so neither the event list nor the document
    is ever held whole. It is written to a temporary sibling and renamed
    into place, so a sweep killed mid-export never leaves a truncated
    trace at ``path``.
    """
    lanes = [_lane_texts(trace, job_name, 1)]
    for i, other in enumerate(extra or (), start=2):
        lanes.append(_lane_texts(other, f"job-{i}", i))
    counters: List[Dict[str, Any]] = []
    if audit:
        counters.extend(audit_counter_events(audit, pid=1))
    if ledger is not None:
        counters.extend(ledger_counter_events(ledger, pid=1))
    if lineage is not None:
        counters.extend(lineage_counter_events(lineage, pid=1))
    lanes.append(map(json.dumps, counters))
    return _write_json_array(chain.from_iterable(lanes), path)


def _lane_texts(trace: TraceLog, job_name: str, pid: int) -> Iterator[str]:
    """One lane's event texts, in :func:`to_trace_events` order."""
    before, after = _lane_events(trace, job_name, pid)
    return chain(
        map(json.dumps, before),
        _task_texts(trace.tasks, pid),
        map(json.dumps, after),
    )


def _task_texts(tasks: Iterable[TaskEvent], pid: int) -> Iterator[str]:
    """Yield ``json.dumps(_task_event(t, pid))`` for each task, fast.

    The text up to ``"ts": `` is built once per (chare, core) and the
    four floats go through ``float.__repr__``, the C encoder's float
    format; ``cpu_time_s`` reuses the ``wall_time_s`` text when the two
    are equal and nonzero (``0.0 == -0.0``, but their texts differ). A
    task whose ids are not plain ``int`` (a ``bool`` is an ``int`` but
    encodes as ``true``), whose chare name is not a plain ``str``, or
    whose floats are not finite plain ``float`` (``json.dumps`` spells
    NaN and infinities its own way) is encoded from its dict instead.
    """
    heads: Dict[Tuple[str, int, int], str] = {}
    for t in tasks:
        core, chare, iteration, start, end, cpu = t
        name = chare[0]
        index = chare[1]
        if (
            type(core) is int
            and type(iteration) is int
            and type(name) is str
            and type(index) is int
            and type(start) is float
            and type(end) is float
            and type(cpu) is float
        ):
            ts = start * _US
            wall = end - start
            dur = wall * _US
            # x * 0.0 is 0.0 for finite x and NaN otherwise; a finite sum
            # that overflows only sends the task down the slow path
            if (ts + dur + cpu) * 0.0 == 0.0:
                key = (name, index, core)
                head = heads.get(key)
                if head is None:
                    # the members before "ts", encoded by json.dumps itself
                    members = dict(islice(_task_event(t, pid).items(), 5))
                    head = heads[key] = json.dumps(members)[:-1] + ', "ts": '
                wall_text = repr(wall)
                cpu_text = wall_text if cpu == wall and cpu else repr(cpu)
                yield (
                    f'{head}{ts!r}, "dur": {dur!r}, "args": {{"iteration": '
                    f'{iteration}, "cpu_time_s": {cpu_text}, "wall_time_s": '
                    f"{wall_text}}}}}"
                )
                continue
        yield json.dumps(_task_event(t, pid))


def _write_json_array(texts: Iterable[str], path: str) -> int:
    """Atomically write the JSON array whose items encode to ``texts``.

    Returns the number of items. Batches of at most :data:`_BATCH`
    texts are joined with the encoder's own ``", "`` item separator and
    written one at a time.
    """
    texts = iter(texts)
    count = 0
    with atomic_write(path, ".json.tmp") as fh:
        fh.write("[")
        for batch in iter(lambda: list(islice(texts, _BATCH)), []):
            if count:
                fh.write(", ")
            fh.write(", ".join(batch))
            count += len(batch)
        fh.write("]")
    return count
