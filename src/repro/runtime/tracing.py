"""Projections-style execution traces.

The paper analyses behaviour with Projections timelines (Figures 1 and 3).
:class:`TraceLog` records the same primitive events — per-task execution
intervals, iteration boundaries, LB steps, migrations — which
:mod:`repro.projections` turns into per-core timelines, idle statistics
and ASCII renderings.

Tracing is optional (``Runtime(..., tracing=True)``, or
``Scenario(tracing=True)`` on either backend); a disabled log accepts
events and drops them. Both engines check first and build no event when
tracing is off. A traced run records one event per entry-method
execution, so the events are named tuples: immutable, picklable (pool
workers ship traces) and cheap to build.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, NamedTuple, Optional, Tuple

__all__ = [
    "TaskEvent",
    "IterationEvent",
    "LBStepEvent",
    "MigrationEvent",
    "TraceLog",
]

ChareKey = Tuple[str, int]


class TaskEvent(NamedTuple):
    """One entry-method execution interval on a core.

    ``end - start`` is the task's *wall* time (stretched by interference);
    ``cpu_time`` is what the LB database records.
    """

    core_id: int
    chare: ChareKey
    iteration: int
    start: float
    end: float
    cpu_time: float


class IterationEvent(NamedTuple):
    """Completion of one application iteration."""

    iteration: int
    start: float
    end: float


class LBStepEvent(NamedTuple):
    """One load-balancing step."""

    time: float
    iteration: int
    num_migrations: int
    migration_cost_s: float
    t_avg: float
    max_load: float


class MigrationEvent(NamedTuple):
    """One object migration."""

    time: float
    chare: ChareKey
    src: int
    dst: int
    state_bytes: float


class TraceLog:
    """Append-only event log for one runtime.

    The log defines the order of :attr:`tasks`: each
    :meth:`add_iteration` stable-sorts the task events appended since the
    previous iteration by ``(end, core_id)``. Tasks of one core keep
    their append order on ties (zero-work tasks ending together), so any
    producer that appends each core's tasks in execution order gets the
    same list — the event engine completes tasks in heap order, the fast
    path folds them core by core.

    Parameters
    ----------
    enabled:
        When False every ``add_*`` is a no-op (zero overhead beyond the
        call).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.tasks: List[TaskEvent] = []
        self.iterations: List[IterationEvent] = []
        self.lb_steps: List[LBStepEvent] = []
        self.migrations: List[MigrationEvent] = []
        # first task event of the iteration in progress
        self._iteration_start = 0

    # ------------------------------------------------------------------
    def add_task(self, ev: TaskEvent) -> None:
        if self.enabled:
            self.tasks.append(ev)

    def add_iteration(self, ev: IterationEvent) -> None:
        if self.enabled:
            start = self._iteration_start
            self.tasks[start:] = sorted(
                self.tasks[start:], key=attrgetter("end", "core_id")
            )
            self._iteration_start = len(self.tasks)
            self.iterations.append(ev)

    def add_lb_step(self, ev: LBStepEvent) -> None:
        if self.enabled:
            self.lb_steps.append(ev)

    def add_migration(self, ev: MigrationEvent) -> None:
        if self.enabled:
            self.migrations.append(ev)

    # ------------------------------------------------------------------
    def tasks_on_core(self, core_id: int) -> List[TaskEvent]:
        """Task events on one core, in start-time order."""
        return sorted(
            (t for t in self.tasks if t.core_id == core_id),
            key=lambda t: t.start,
        )

    def iteration_span(self, iteration: int) -> Optional[IterationEvent]:
        """The record for ``iteration``, or None if absent."""
        for ev in self.iterations:
            if ev.iteration == iteration:
                return ev
        return None

    def total_migrations(self) -> int:
        """Total migrations across all LB steps."""
        return len(self.migrations)
