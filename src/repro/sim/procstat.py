"""Synthesized ``/proc/stat`` counters.

The paper's Eq. (2) computes the background load of core *p* as

    O_p = T_lb − Σ_i t_i^p − t_idle^p

where ``t_idle^p`` is read from ``/proc/stat``. To keep the reproduction
honest, the load balancer is *not* allowed to peek at the simulator's
ground-truth record of what the interfering job consumed. Instead it reads
this module's :class:`ProcStat`, which exposes exactly what the real file
exposes: cumulative per-core busy and idle jiffies (here: seconds), plus —
for the runtime's own bookkeeping — the CPU time attributed to a given
accounting tag (the analogue of reading one's own ``/proc/self/stat``).

Snapshots are cheap, immutable records (named tuples, taken per core
at every LB step); windowed deltas between two snapshots give the
per-LB-period quantities of Eq. (2).
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Sequence

from repro.sim.cpu import SharedCore

__all__ = ["CoreStatSnapshot", "ProcStat"]

_new = tuple.__new__


class CoreStatSnapshot(NamedTuple):
    """Cumulative counters for one core at one instant.

    Attributes
    ----------
    time:
        Simulated time of the snapshot.
    busy:
        Cumulative wall-seconds during which the core had >= 1 runnable
        process.
    idle:
        Cumulative wall-seconds with no runnable process
        (``t_idle`` in Eq. 2).
    self_cpu:
        Cumulative CPU-seconds consumed by the *observing* job's own
        accounting tag on this core (``/proc/self`` analogue). What other
        tenants consumed is deliberately not exposed.
    """

    time: float
    busy: float
    idle: float
    self_cpu: float

    def delta(self, earlier: "CoreStatSnapshot") -> "CoreStatSnapshot":
        """Windowed counters between ``earlier`` and this snapshot."""
        if earlier.time > self.time:
            raise ValueError("earlier snapshot is newer than this one")
        return _new(
            CoreStatSnapshot,
            (
                self.time - earlier.time,
                self.busy - earlier.busy,
                self.idle - earlier.idle,
                self.self_cpu - earlier.self_cpu,
            ),
        )


class ProcStat:
    """Reader of OS-visible CPU accounting for one observing job.

    Parameters
    ----------
    cores:
        The physical cores to observe, keyed however the caller wants to
        key them (typically global core id).
    owner:
        The observing job's accounting tag: its own CPU consumption is
        visible (``self_cpu``); everything else is aggregated into
        busy/idle, as on a real multi-tenant host.
    """

    def __init__(self, cores: Mapping[int, SharedCore], owner: str) -> None:
        self._cores: Dict[int, SharedCore] = dict(cores)
        self._core_ids = tuple(sorted(self._cores))
        self._owner = owner

    @property
    def owner(self) -> str:
        """Accounting tag whose own CPU time is visible."""
        return self._owner

    def core_ids(self) -> Sequence[int]:
        """Observed core ids, sorted."""
        return self._core_ids

    def snapshot(self, core_id: int) -> CoreStatSnapshot:
        """Current cumulative counters for ``core_id``."""
        return _snapshot(self._cores[core_id], self._owner)

    def snapshot_all(self) -> Dict[int, CoreStatSnapshot]:
        """Snapshots for every observed core."""
        owner = self._owner
        return {cid: _snapshot(core, owner) for cid, core in self._cores.items()}

    def is_current(self, snaps: Mapping[int, CoreStatSnapshot]) -> bool:
        """Whether every snapshot in ``snaps`` is of its core's current time.

        Counters move only as the simulated clock does, so such snapshots
        still equal what :meth:`snapshot_all` would return now.
        """
        return all(
            snaps[cid].time == core.engine.now for cid, core in self._cores.items()
        )

    @staticmethod
    def background_load(
        window: CoreStatSnapshot, task_cpu_sum: float
    ) -> float:
        """Eq. (2): ``O_p = T_lb − Σ t_i − t_idle`` over a window.

        Parameters
        ----------
        window:
            Delta snapshot covering the LB period (``time`` equals
            ``T_lb``).
        task_cpu_sum:
            Σ t_i^p — CPU time the runtime's own instrumented tasks
            consumed on the core during the window (from the LB database).

        Notes
        -----
        Clamped at zero: measurement noise (or in our case float round-off)
        can otherwise produce a tiny negative background load, and a
        negative O_p would make Eq. (1) under-estimate the average load.
        """
        o_p = window.time - task_cpu_sum - window.idle
        return max(o_p, 0.0)


def _snapshot(core: SharedCore, owner: str) -> CoreStatSnapshot:
    core.sync()
    return _new(
        CoreStatSnapshot,
        (core.engine.now, core.busy_time, core.idle_time, core.owner_cpu(owner)),
    )
