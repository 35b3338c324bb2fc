"""Utilisation summaries over traces.

The quantitative counterpart to the timelines: per-core busy/idle totals
and per-iteration durations, used by tests ("cores 1–3 wait for core 4")
and by the figure harnesses' printed commentary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.projections.timeline import extract_timelines
from repro.runtime.tracing import TraceLog
from repro.util import left_sum

__all__ = ["UtilizationSummary", "summarize_utilization"]


@dataclass(frozen=True)
class UtilizationSummary:
    """Aggregate utilisation of one runtime's cores over a window.

    Attributes
    ----------
    per_core:
        ``core_id -> utilization`` in [0, 1].
    mean:
        Mean utilisation across cores.
    min_core, max_core:
        Cores with the lowest/highest utilisation (ties: lowest id).
    iteration_durations:
        Wall time of each iteration inside the window.
    """

    per_core: Dict[int, float]
    mean: float
    min_core: int
    max_core: int
    iteration_durations: Tuple[float, ...]


def summarize_utilization(
    trace: TraceLog,
    core_ids: Sequence[int],
    *,
    iterations: Tuple[int, int] = None,
) -> UtilizationSummary:
    """Compute per-core utilisation and iteration durations.

    Parameters
    ----------
    trace:
        A traced runtime's log.
    core_ids:
        The job's cores.
    iterations:
        Optional ``(first, last)`` inclusive window; defaults to the whole
        trace.
    """
    timelines = extract_timelines(trace, core_ids, iterations=iterations)
    per_core = {cid: tl.utilization for cid, tl in timelines.items()}
    if not per_core:
        raise ValueError("no cores to summarise")
    mean = left_sum(per_core.values()) / len(per_core)
    min_core = min(per_core, key=lambda c: (per_core[c], c))
    max_core = max(per_core, key=lambda c: (per_core[c], -c))
    if iterations is not None:
        lo, hi = iterations
        durations = tuple(
            ev.end - ev.start
            for ev in trace.iterations
            if lo <= ev.iteration <= hi
        )
    else:
        durations = tuple(ev.end - ev.start for ev in trace.iterations)
    return UtilizationSummary(
        per_core=per_core,
        mean=mean,
        min_core=min_core,
        max_core=max_core,
        iteration_durations=durations,
    )
