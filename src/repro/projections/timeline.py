"""Per-core timeline extraction from trace logs.

A timeline is the per-core sequence of *intervals*: task executions
(labelled with the chare that ran) separated by idle gaps. Wall-time
stretching under interference is visible directly — an interfered core's
task intervals are longer than its peers' for the same chare work, which
is exactly what the paper's Figure 1(b) shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.tracing import TraceLog
from repro.util import left_sum

__all__ = ["Interval", "CoreTimeline", "extract_timelines"]

ChareKey = Tuple[str, int]


@dataclass(frozen=True)
class Interval:
    """One timeline segment on a core.

    ``chare`` is None for idle gaps.
    """

    start: float
    end: float
    chare: Optional[ChareKey] = None
    iteration: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_idle(self) -> bool:
        return self.chare is None


@dataclass
class CoreTimeline:
    """All intervals of one core within the extraction window."""

    core_id: int
    intervals: List[Interval]

    @property
    def busy_time(self) -> float:
        """Wall time spent executing tasks."""
        return left_sum(i.duration for i in self.intervals if not i.is_idle)

    @property
    def idle_time(self) -> float:
        """Wall time spent idle between/around tasks."""
        return left_sum(i.duration for i in self.intervals if i.is_idle)

    @property
    def utilization(self) -> float:
        """busy / (busy + idle); 0.0 for an empty timeline."""
        total = self.busy_time + self.idle_time
        return self.busy_time / total if total > 0 else 0.0


def extract_timelines(
    trace: TraceLog,
    core_ids: Sequence[int],
    *,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
    iterations: Optional[Tuple[int, int]] = None,
) -> Dict[int, CoreTimeline]:
    """Build per-core timelines from a trace.

    Parameters
    ----------
    trace:
        A runtime's trace log (``tracing=True`` runs only).
    core_ids:
        Cores to extract (order preserved in the result dict).
    t_start, t_end:
        Window bounds; default to the trace's iteration span.
    iterations:
        Alternative window: ``(first, last)`` iteration numbers inclusive
        (mutually exclusive with explicit times).

    Returns
    -------
    dict
        ``core_id -> CoreTimeline``, idle gaps filled in.
    """
    if iterations is not None:
        if t_start is not None or t_end is not None:
            raise ValueError("pass either iterations or explicit times, not both")
        first, last = iterations
        span_a = trace.iteration_span(first)
        span_b = trace.iteration_span(last)
        if span_a is None or span_b is None:
            raise ValueError(f"iterations {iterations} not found in trace")
        t_start, t_end = span_a.start, span_b.end
    if t_start is None:
        t_start = min((e.start for e in trace.iterations), default=0.0)
    if t_end is None:
        t_end = max((e.end for e in trace.iterations), default=0.0)
    if t_end < t_start:
        raise ValueError(f"t_end ({t_end}) precedes t_start ({t_start})")

    result: Dict[int, CoreTimeline] = {}
    for cid in core_ids:
        segments: List[Interval] = []
        cursor = t_start
        for ev in trace.tasks_on_core(cid):
            if ev.end <= t_start or ev.start >= t_end:
                continue
            s, e = max(ev.start, t_start), min(ev.end, t_end)
            if s > cursor:
                segments.append(Interval(cursor, s))  # idle gap
            segments.append(
                Interval(s, e, chare=ev.chare, iteration=ev.iteration)
            )
            cursor = e
        if cursor < t_end:
            segments.append(Interval(cursor, t_end))
        result[cid] = CoreTimeline(core_id=cid, intervals=segments)
    return result
