"""Simulated CPU-consuming processes.

A :class:`SimProcess` models one schedulable entity on a core: in this
reproduction that is either

* one *chare task execution* of the instrumented parallel application
  (the runtime creates one process per chare task and runs them
  back-to-back on the owning core, so per-task wall times stretch under
  interference exactly as the paper's Figure 1 timelines show), or
* a slice of a *background (interfering) job*.

A process carries its **remaining CPU demand** (in CPU-seconds) and an
**accumulated CPU time** counter. While runnable on a
:class:`~repro.sim.cpu.SharedCore` it advances at the core's
proportional-share rate; the core performs all accrual — the process is a
passive record plus a completion callback.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

from repro.util import check_non_negative, check_positive

__all__ = ["ProcessState", "SimProcess"]

_proc_ids = itertools.count()

_INF = float("inf")


class ProcessState(enum.Enum):
    """Lifecycle of a :class:`SimProcess`."""

    NEW = "new"          #: created, never dispatched
    RUNNABLE = "runnable"  #: on a core, consuming CPU share
    BLOCKED = "blocked"    #: off-CPU (waiting at a barrier / not arrived)
    DONE = "done"          #: demand fully consumed


class SimProcess:
    """One schedulable unit of CPU demand.

    Parameters
    ----------
    name:
        Human-readable label, shown by ``repr()`` next to ``owner`` and
        ``key``.
    demand:
        CPU-seconds this process must consume before completing.
    weight:
        Proportional-share scheduler weight (Linux CFS ``nice`` analogue).
        A background job with ``weight=2`` on a fair-share core receives
        2/3 of the CPU against a weight-1 application process — this knob
        models the OS preference toward the interfering job that the paper
        observed for Mol3D.
    owner:
        Free-form accounting tag (e.g. ``"app:main"`` / ``"bg:wave2d"``);
        per-owner CPU usage accrues on the core under this tag, which is
        how the synthesized ``/proc/stat`` attributes time.
    on_complete:
        Callback invoked (with this process) when demand reaches zero.
    key:
        Optional chare identity ``(collection_name, index)`` this process
        executes on behalf of — the attribution handle the time ledger
        charges compute/stolen time to.
    """

    __slots__ = (
        "pid",
        "name",
        "remaining",
        "weight",
        "owner",
        "on_complete",
        "key",
        "state",
        "cpu_time",
        "started_at",
        "completed_at",
    )

    def __init__(
        self,
        name: str,
        demand: float,
        *,
        weight: float = 1.0,
        owner: str = "anonymous",
        on_complete: Optional[Callable[["SimProcess"], None]] = None,
        key: Optional[tuple] = None,
    ) -> None:
        # hot path (one process per entry-method execution): inline
        # comparisons accept the common case; the full checkers handle
        # everything else (exact error messages, odd numeric types)
        t = type(demand)
        if not ((t is float or t is int) and 0 <= demand < _INF):
            check_non_negative("demand", demand)
        t = type(weight)
        if not ((t is float or t is int) and 0 < weight < _INF):
            check_positive("weight", weight)
        self.pid: int = next(_proc_ids)
        self.name = name
        self.remaining = float(demand)
        self.weight = float(weight)
        self.owner = owner
        self.on_complete = on_complete
        self.key = key
        self.state = ProcessState.NEW
        self.cpu_time: float = 0.0       #: CPU-seconds consumed so far
        self.started_at: Optional[float] = None    #: first dispatch time
        self.completed_at: Optional[float] = None  #: completion time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimProcess(pid={self.pid}, name={self.name!r}, "
            f"owner={self.owner!r}, key={self.key!r}, "
            f"state={self.state.value}, remaining={self.remaining:.6g})"
        )
