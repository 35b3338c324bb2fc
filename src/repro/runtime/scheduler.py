"""Per-core message scheduler.

One :class:`CoreScheduler` per (runtime, core): a FIFO of pending
:class:`~repro.runtime.messages.ComputeMsg`, executing **one entry method
at a time** as a :class:`~repro.sim.process.SimProcess` on the underlying
:class:`~repro.sim.cpu.SharedCore`. This mirrors a Charm++ PE's scheduler
loop and has the observable consequence the paper's Figure 1 shows: under
interference each *task's wall time* stretches (the process advances at a
fractional rate) while its *CPU time* — what the LB database records —
stays the task's intrinsic cost.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.runtime.messages import ComputeMsg
from repro.sim.cpu import SharedCore
from repro.sim.process import SimProcess

__all__ = ["CoreScheduler"]


class CoreScheduler:
    """FIFO entry-method executor for one core of one job.

    Parameters
    ----------
    core:
        The physical core this scheduler occupies when it has work.
    owner:
        Accounting tag of the job (forwarded to processes).
    weight:
        OS scheduling weight of the job's processes on this core.
    work_of:
        ``msg -> CPU-seconds`` cost oracle (the runtime resolves the
        chare and evaluates its work model).
    on_task_done:
        ``(msg, process) -> None`` — instrumentation/trace callback.
    on_drain:
        ``() -> None`` — called when the queue empties (barrier arrival).
    """

    def __init__(
        self,
        core: SharedCore,
        *,
        owner: str,
        weight: float,
        work_of: Callable[[ComputeMsg], float],
        on_task_done: Callable[[ComputeMsg, SimProcess], None],
        on_drain: Callable[[], None],
    ) -> None:
        self.core = core
        self.owner = owner
        self.weight = weight
        self._work_of = work_of
        self._on_task_done = on_task_done
        self._on_drain = on_drain
        self._queue: Deque[ComputeMsg] = deque()
        self._current: Optional[ComputeMsg] = None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Is an entry method currently executing?"""
        return self._current is not None

    @property
    def queued(self) -> int:
        """Messages waiting behind the current one."""
        return len(self._queue)

    def enqueue(self, msg: ComputeMsg) -> None:
        """Deliver a message; starts executing immediately if idle."""
        self._queue.append(msg)
        if not self.busy:
            self._start_next()

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        msg = self._queue.popleft()
        self._current = msg
        demand = self._work_of(msg)
        # named after the job alone: ``key`` (and ``owner``) identify the
        # task, so no name string is formatted per task
        proc = SimProcess(
            name=self.owner,
            demand=demand,
            weight=self.weight,
            owner=self.owner,
            on_complete=self._task_complete,
            key=msg.chare,
        )
        self.core.dispatch(proc)

    def _task_complete(self, proc: SimProcess) -> None:
        msg = self._current
        assert msg is not None
        self._current = None
        self._on_task_done(msg, proc)
        if self._queue:
            self._start_next()
        else:
            self._on_drain()
