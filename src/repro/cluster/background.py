"""Interfering background-load primitives.

Two kinds of interference appear in the paper:

1. A *measured* background job (Figure 2): a real 2-core Wave2D run whose
   own timing penalty is part of the evaluation. That job is a first-class
   application built by :mod:`repro.experiments` on top of the runtime.
2. *Scripted* interference (Figures 1 and 3): a job that appears on one
   core, disappears, then reappears on another — used to show the balancer
   reacting. For these, a full application is unnecessary; this module
   provides :class:`Interferer`, a CPU hog bound to one core over a time
   window, and :class:`PhasedInterference`, a schedule of such windows.

An :class:`Interferer` is always runnable while active (it models a
compute-bound co-located VM), so whenever the instrumented application is
also runnable on that core, both advance at their weight shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.sim.cpu import SharedCore
from repro.sim.engine import SimulationEngine
from repro.sim.process import ProcessState, SimProcess
from repro.util import check_non_negative, check_positive, left_sum

__all__ = ["Interferer", "InterferencePhase", "PhasedInterference"]

#: Demand top-up quantum for open-ended hogs (CPU-seconds). Large enough
#: that top-ups are rare, small enough to avoid float-precision loss when
#: subtracting tiny accruals from the remaining demand.
_TOPUP = 1e6


class Interferer:
    """A compute-bound background process occupying one core for a window.

    Parameters
    ----------
    engine, core:
        Simulation engine and the core the interferer is pinned to.
    start:
        Activation time (seconds); ``None`` for fully manual control via
        :meth:`activate` / :meth:`deactivate` (used by event-driven
        schedules such as the Figure 3 harness, which flips interference
        at iteration boundaries).
    end:
        Deactivation time; ``None`` means "until the simulation ends"
        (or until :meth:`deactivate` is called).
    weight:
        Share-scheduler weight (1.0 = fair share against a weight-1 app).
    owner:
        Accounting tag; defaults to ``"bg:interferer-<core>"``.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        core: SharedCore,
        *,
        start: Optional[float] = 0.0,
        end: Optional[float] = None,
        weight: float = 1.0,
        owner: Optional[str] = None,
    ) -> None:
        check_positive("weight", weight)
        if start is not None:
            check_non_negative("start", start)
            if end is not None and end < start:
                raise ValueError(f"end ({end}) precedes start ({start})")
        elif end is not None:
            raise ValueError("end requires a scheduled start time")
        self.engine = engine
        self.core = core
        self.start = None if start is None else float(start)
        self.end = None if end is None else float(end)
        self.owner = owner or f"bg:interferer-{core.core_id}"
        self.process = SimProcess(
            name=self.owner, demand=_TOPUP, weight=weight, owner=self.owner
        )
        self.active = False
        if self.start is not None:
            engine.schedule_at(self.start, self.activate)
        if self.end is not None:
            engine.schedule_at(self.end, self.deactivate)

    def activate(self) -> None:
        """Put the hog on its core now (idempotent)."""
        if self.process.state is ProcessState.RUNNABLE:
            return
        self.core.dispatch(self.process)
        self.active = True
        # keep the hog topped up so it never self-completes
        self._arm_topup()

    def _arm_topup(self) -> None:
        def topup() -> None:
            if self.active and self.process.state is ProcessState.RUNNABLE:
                if self.process.remaining < _TOPUP / 2:
                    self.core.add_demand(self.process, _TOPUP)
                self._arm_topup()

        # check twice per quantum worst-case consumption horizon
        self.engine.schedule_after(_TOPUP / 2, topup)

    def deactivate(self) -> None:
        """Take the hog off its core now (idempotent)."""
        if self.process.state is ProcessState.RUNNABLE:
            self.core.preempt(self.process)
        self.active = False

    @property
    def cpu_consumed(self) -> float:
        """CPU-seconds this interferer has executed so far."""
        self.core.sync()
        return self.process.cpu_time


@dataclass(frozen=True)
class InterferencePhase:
    """One scripted interference window: ``core_id`` hogged on [start, end).

    ``end=None`` leaves the interferer on until the simulation finishes.
    """

    core_id: int
    start: float
    end: Optional[float] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("start", self.start)
        if self.end is not None and self.end < self.start:
            raise ValueError("phase end precedes start")
        check_positive("weight", self.weight)


class PhasedInterference:
    """Instantiate a list of :class:`InterferencePhase` on a cluster.

    This is the Figure 3 driver: e.g. BG on core 1 during [0, 40), then on
    core 3 during [80, 120).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cores: Sequence[SharedCore],
        phases: Sequence[InterferencePhase],
    ) -> None:
        self.phases = list(phases)
        self.interferers: List[Interferer] = []
        by_id = {c.core_id: c for c in cores}
        for i, phase in enumerate(self.phases):
            if phase.core_id not in by_id:
                raise ValueError(
                    f"phase {i} targets unknown core {phase.core_id}"
                )
            self.interferers.append(
                Interferer(
                    engine,
                    by_id[phase.core_id],
                    start=phase.start,
                    end=phase.end,
                    weight=phase.weight,
                    owner=f"bg:phase{i}-core{phase.core_id}",
                )
            )

    def total_cpu_consumed(self) -> float:
        """CPU-seconds consumed by all scripted interferers."""
        return left_sum(i.cpu_consumed for i in self.interferers)
