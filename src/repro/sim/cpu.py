"""Proportional-share CPU core model.

:class:`SharedCore` is the mechanism that *produces* interference in this
reproduction. All runnable processes on a core advance simultaneously, each
at rate ``weight_i / sum(weights)`` (CPU-seconds per wall-second). This is
the standard fluid approximation of an OS fair-share scheduler: over the
multi-millisecond horizons that matter here, Linux CFS time-slicing is
indistinguishable from weighted processor sharing.

Consequences relevant to the paper:

* an application rank that shares its core 1:1 with a background job runs at
  half speed — its iteration takes ~2x, stalling the whole tightly coupled
  application (Figure 1);
* a background job with a larger weight (the OS preference the paper saw for
  Mol3D) squeezes the application harder, producing the 400% no-LB penalty;
* when the load balancer migrates the application's chares away, the
  background job's share rises toward 100% and *its* penalty shrinks
  (Figure 2's "BG LB" series).

Accounting
----------
The core accrues, exactly and lazily (on every scheduling change):

* per-process consumed CPU time (:attr:`SimProcess.cpu_time`),
* per-owner CPU time (``cpu_by_owner`` — the basis of ``/proc/stat``),
* busy and idle wall time (busy = at least one runnable process).

Event handling uses *version-stamped* completion events: every change to
the runnable set bumps a version; stale completion events are ignored when
they fire. This avoids O(n) cancellation churn while staying exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.engine import EventHandle, SimulationEngine
from repro.sim.process import ProcessState, SimProcess
from repro.util import check_non_negative

__all__ = ["SharedCore"]

#: Completion slack: a process whose remaining demand is below this many
#: CPU-seconds at its projected completion event is considered done. This
#: absorbs float round-off from repeated accrual.
_COMPLETION_EPS = 1e-9


def _clock_stalled(core_id: int, now: float, remaining: float) -> RuntimeError:
    """The error both backends raise when re-projecting a task cannot
    advance the clock.

    Past 2**24 s half an ulp of the clock exceeds :data:`_COMPLETION_EPS`,
    so a projection ``now + d`` can leave a remainder above the slack that
    ``now + remainder`` rounds away: re-projecting would fire at ``now``
    forever.
    """
    return RuntimeError(
        f"core {core_id}: a task's remaining {remaining!r} CPU-s cannot "
        f"advance the simulated clock past {now!r} s (float resolution)"
    )


class SharedCore:
    """One physical core executing processes under processor sharing.

    Parameters
    ----------
    engine:
        The simulation engine providing time and event scheduling.
    core_id:
        Global core index (stable identifier used by the cluster, the
        load balancer, and traces).
    speed:
        Relative throughput of this core (1.0 = the reference core the
        work models are calibrated against). A process's *demand* is
        reference-core CPU-seconds: on a core of speed ``s`` running at
        share ``f``, demand drains at rate ``s*f`` while the OS-visible
        occupancy (``cpu_time``, ``/proc/stat`` busy) accrues at ``f`` —
        exactly how a slow cloud VM looks to accounting: the same task
        simply *occupies* the CPU for longer. Heterogeneous clusters are
        therefore handled by measurement-based balancing for free: the
        instrumented task times already embed the speed.
    record_intervals:
        When True the core logs ``(start, end, n_runnable)`` busy intervals,
        used by the power meter's time-series reconstruction and by the
        Projections-style timelines. Costs memory proportional to the
        number of scheduling changes; disable for very long runs.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        core_id: int,
        *,
        speed: float = 1.0,
        record_intervals: bool = False,
    ) -> None:
        if not speed > 0:
            raise ValueError(f"speed must be > 0, got {speed}")
        self.engine = engine
        self.core_id = int(core_id)
        self.speed = float(speed)
        self._runnable: Dict[int, SimProcess] = {}
        self._version = 0
        self._last_accrual = engine.now
        self._pending_events: Dict[int, EventHandle] = {}

        # accounting
        self.busy_time: float = 0.0
        self.idle_time: float = 0.0
        self.cpu_by_owner: Dict[str, float] = {}
        #: optional :class:`~repro.obs.ledger.TimeLedger` (null hook:
        #: None by default — a single identity check per accrual)
        self.ledger = None

        self.record_intervals = record_intervals
        #: list of (start, end, concurrency) busy intervals, if recording
        self.busy_intervals: List[Tuple[float, float, int]] = []
        self._interval_start: Optional[float] = None
        self._interval_n: int = 0

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    @property
    def runnable_count(self) -> int:
        """Number of processes currently sharing this core."""
        return len(self._runnable)

    @property
    def total_weight(self) -> float:
        """Sum of runnable process weights (0.0 when idle).

        The left fold :func:`~repro.util.left_sum` computes, written out;
        ``_accrue`` and ``_changed``, which run at every scheduling
        change, inline the same fold.
        """
        total = 0
        for p in self._runnable.values():
            total = total + p.weight
        return total

    def rate_of(self, process: SimProcess) -> float:
        """Current execution rate of ``process`` (CPU-s per wall-s)."""
        if process.pid not in self._runnable:
            return 0.0
        return process.weight / self.total_weight

    def dispatch(self, process: SimProcess) -> None:
        """Make ``process`` runnable on this core.

        Zero-demand processes complete via an immediate event (still through
        the engine, preserving deterministic ordering).
        """
        if process.state is ProcessState.RUNNABLE:
            raise RuntimeError(f"{process!r} is already runnable")
        if process.state is ProcessState.DONE:
            raise RuntimeError(f"{process!r} already completed")
        self._accrue()
        process.state = ProcessState.RUNNABLE
        if process.started_at is None:
            process.started_at = self.engine.now
        self._runnable[process.pid] = process
        self._changed()

    def preempt(self, process: SimProcess) -> None:
        """Remove ``process`` from the core without completing it.

        Its consumed CPU time is accrued up to now; the caller may later
        dispatch it again (here or on another core) to continue.
        """
        if process.pid not in self._runnable:
            raise RuntimeError(f"{process!r} is not runnable on core {self.core_id}")
        self._accrue()
        del self._runnable[process.pid]
        process.state = ProcessState.BLOCKED
        self._changed()

    def add_demand(self, process: SimProcess, extra: float) -> None:
        """Increase the remaining demand of a runnable process by ``extra``.

        Used by open-ended background jobs that are modelled as a single
        process topped up period by period.
        """
        check_non_negative("extra", extra)
        if process.pid not in self._runnable:
            raise RuntimeError(f"{process!r} is not runnable on core {self.core_id}")
        self._accrue()
        process.remaining += extra
        self._changed()

    # ------------------------------------------------------------------
    # accrual / scheduling internals
    # ------------------------------------------------------------------
    def _accrue(self) -> None:
        """Advance accounting from the last accrual point to ``engine.now``."""
        now = self.engine.now
        last = self._last_accrual
        dt = now - last
        if dt < 0:  # pragma: no cover - engine guarantees monotonic time
            raise RuntimeError("time moved backwards")
        if dt > 0.0:
            runnable = self._runnable
            if self.ledger is not None:
                self.ledger.accrue(self.core_id, last, now, runnable.values())
            if runnable:
                self.busy_time += dt
                total_w = 0  # the total_weight fold, inline
                for p in runnable.values():
                    total_w = total_w + p.weight
                speed = self.speed
                by_owner = self.cpu_by_owner
                for p in runnable.values():
                    share = dt * (p.weight / total_w)
                    p.cpu_time += share          # occupancy (OS view)
                    p.remaining -= share * speed  # real progress
                    by_owner[p.owner] = by_owner.get(p.owner, 0.0) + share
            else:
                self.idle_time += dt
        self._last_accrual = now

    def _changed(self) -> None:
        """Runnable set or demands changed: bump version, reschedule."""
        self._version += 1
        engine = self.engine
        pending = self._pending_events
        # Cancel stale projections eagerly: besides the version stamp (the
        # correctness guard), this keeps the event heap free of dead events
        # so an idle simulation drains immediately.
        for handle in pending.values():
            engine.cancel(handle)
        pending.clear()
        if self.record_intervals:
            self._update_interval_log()
        runnable = self._runnable
        if not runnable:
            return
        total_w = 0  # the total_weight fold, inline
        for p in runnable.values():
            total_w = total_w + p.weight
        speed = self.speed
        version = self._version
        schedule_after = engine.schedule_after
        on_completion = self._on_projected_completion
        for p in runnable.values():
            rate = (p.weight / total_w) * speed
            eta = max(p.remaining, 0.0) / rate
            pending[p.pid] = schedule_after(eta, on_completion, p, version)

    def _on_projected_completion(self, process: SimProcess, version: int) -> None:
        if version != self._version:
            return  # stale projection — the schedule changed since
        # this handle has fired: keep it out of _changed's cancel sweep
        del self._pending_events[process.pid]
        self._accrue()
        remaining = process.remaining
        if remaining > _COMPLETION_EPS:
            # Numerically the projection can land a hair early; re-project.
            now = self.engine.now
            rate = (process.weight / self.total_weight) * self.speed
            if now + remaining / rate == now:
                raise _clock_stalled(self.core_id, now, remaining)
            self._changed()
            return
        process.remaining = 0.0
        del self._runnable[process.pid]
        process.state = ProcessState.DONE
        process.completed_at = self.engine.now
        self._changed()
        if process.on_complete is not None:
            process.on_complete(process)

    # ------------------------------------------------------------------
    # busy-interval log (power time-series & timelines)
    # ------------------------------------------------------------------
    def _update_interval_log(self) -> None:
        """Open or close a busy interval (only called when recording)."""
        now = self.engine.now
        n = len(self._runnable)
        if self._interval_start is not None:
            # close the previous interval if occupancy changed
            if n != self._interval_n:
                if now > self._interval_start and self._interval_n > 0:
                    self.busy_intervals.append(
                        (self._interval_start, now, self._interval_n)
                    )
                self._interval_start = now if n > 0 else None
                self._interval_n = n
        elif n > 0:
            self._interval_start = now
            self._interval_n = n

    def finalize_intervals(self) -> None:
        """Close any open busy interval at the current time (end of run)."""
        if not self.record_intervals:
            return
        now = self.engine.now
        self._accrue()
        if self._interval_start is not None and self._interval_n > 0:
            if now > self._interval_start:
                self.busy_intervals.append(
                    (self._interval_start, now, self._interval_n)
                )
            self._interval_start = now if self._runnable else None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force accounting to be up-to-date with ``engine.now``.

        Counters (``busy_time`` etc.) lag until the next scheduling change;
        call this before reading them mid-run.
        """
        self._accrue()

    def owner_cpu(self, owner: str) -> float:
        """CPU-seconds consumed on this core under accounting tag ``owner``."""
        return self.cpu_by_owner.get(owner, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedCore(id={self.core_id}, runnable={len(self._runnable)}, "
            f"busy={self.busy_time:.6g}, idle={self.idle_time:.6g})"
        )
