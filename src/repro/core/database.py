"""The load-balancing database: what a balancer is allowed to see.

Charm++'s LB framework instruments every entry-method execution and hands
strategies a per-processor summary. We mirror that contract:

* :class:`TaskRecord` — one migratable object: measured CPU time over the
  last LB window plus its serialised size (migration cost input).
* :class:`CoreLoad` — one core: its task records, the Eq.-(2)
  background load ``O_p`` and the task records' CPU sum.
* :class:`LBView` — the whole picture at one LB step, immutable, with the
  paper's Eq. (1) average ``T_avg`` as a property.
* :class:`Migration` — one decision: move ``chare`` from ``src`` to ``dst``.
* :class:`LBDatabase` — the runtime-side accumulator that builds views:
  it sums per-chare CPU between LB steps, in one list per core laid out
  from the chare mapping, and derives O_p from ``/proc/stat`` snapshots
  (never from simulator ground truth).

``TaskRecord``, ``CoreLoad`` and ``Migration`` are built per task, core
or decision at every LB step, so they are named tuples: immutable,
picklable, compared and hashed by field values, and validated on public
construction. :meth:`LBDatabase.build_view` builds its records with
``tuple.__new__`` from inputs it has already checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.sim.procstat import CoreStatSnapshot, ProcStat
from repro.util import check_finite, check_non_negative, left_sum

__all__ = ["TaskRecord", "CoreLoad", "LBView", "Migration", "LBDatabase"]

ChareKey = Tuple[str, int]  #: (array name, index) — hashable chare identity

_INF = float("inf")
_new = tuple.__new__


class _TaskRecordFields(NamedTuple):
    chare: ChareKey
    cpu_time: float
    state_bytes: float = 0.0
    comm: Tuple[Tuple[ChareKey, float], ...] = ()


class TaskRecord(_TaskRecordFields):
    """One migratable task as the balancer sees it.

    Attributes
    ----------
    chare:
        Identity ``(array_name, index)``.
    cpu_time:
        t_i^p — CPU-seconds this task consumed during the LB window.
    state_bytes:
        Serialised state size; determines migration cost.
    comm:
        Recorded communication partners: ``((other_chare, bytes), ...)``
        per iteration. Empty unless the runtime was given a
        :class:`~repro.runtime.commgraph.CommGraph`. Communication-aware
        strategies read this — never the graph itself — preserving the
        rule that balancers see only the instrumentation database.
    """

    __slots__ = ()

    def __new__(
        cls,
        chare: ChareKey,
        cpu_time: float,
        state_bytes: float = 0.0,
        comm: Tuple[Tuple[ChareKey, float], ...] = (),
    ) -> "TaskRecord":
        # inline comparisons accept the common case; the full checkers
        # handle everything else (exact error messages, odd numeric types)
        if not (
            type(cpu_time) is float
            and 0.0 <= cpu_time < _INF
            and type(state_bytes) is float
            and 0.0 <= state_bytes < _INF
        ):
            check_non_negative("cpu_time", cpu_time)
            check_non_negative("state_bytes", state_bytes)
        for other, nbytes in comm:
            if nbytes < 0:
                raise ValueError(
                    f"negative comm volume {nbytes} to {other} on {chare}"
                )
        return _new(cls, (chare, cpu_time, state_bytes, comm))


#: ``(chare, cpu_time, state_bytes, comm)`` -> :class:`TaskRecord`,
#: unchecked (for inputs :class:`LBDatabase` has already checked)
_task_record = partial(_new, TaskRecord)


class _CoreLoadFields(NamedTuple):
    core_id: int
    tasks: Tuple[TaskRecord, ...]
    bg_load: float = 0.0
    task_time: float = 0.0


class CoreLoad(_CoreLoadFields):
    """One core's instrumented state at an LB step.

    Attributes
    ----------
    core_id:
        Global core id.
    tasks:
        Task records currently mapped to this core.
    bg_load:
        O_p from Eq. (2): CPU-seconds the core spent on work external to
        the application during the window.
    task_time:
        Σ_i t_i^p — instrumented task CPU time on this core, the
        ``left_sum`` of ``tasks``' CPU times. Computed when omitted, so
        ``CoreLoad(core_id, tasks, bg_load)`` carries its sum; a given
        value is taken as is (pickling passes every field).
    """

    __slots__ = ()

    def __new__(
        cls,
        core_id: int,
        tasks: Tuple[TaskRecord, ...],
        bg_load: float = 0.0,
        task_time: Optional[float] = None,
    ) -> "CoreLoad":
        if not (type(bg_load) is float and 0.0 <= bg_load < _INF):
            check_non_negative("bg_load", bg_load)
        if task_time is None:
            task_time = left_sum([t.cpu_time for t in tasks])
        elif not (type(task_time) is float and 0.0 <= task_time < _INF):
            check_non_negative("task_time", task_time)
        return _new(cls, (core_id, tasks, bg_load, task_time))

    @property
    def total_load(self) -> float:
        """Σ_i t_i^p + O_p — the load Algorithm 1 compares to T_avg."""
        return self.task_time + self.bg_load


@dataclass(frozen=True)
class LBView:
    """Immutable snapshot handed to a load balancer at one LB step.

    Attributes
    ----------
    cores:
        Per-core loads, one entry per core the application runs on.
    window:
        T_lb — wall-clock seconds since the previous LB step.
    """

    cores: Tuple[CoreLoad, ...]
    window: float

    def __post_init__(self) -> None:
        check_non_negative("window", self.window)
        seen = set()
        for c in self.cores:
            if c.core_id in seen:
                raise ValueError(f"duplicate core_id {c.core_id} in LBView")
            seen.add(c.core_id)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def t_avg(self) -> float:
        """Eq. (1): average per-core load including background loads."""
        if not self.cores:
            return 0.0
        return left_sum(c.total_load for c in self.cores) / len(self.cores)

    def core(self, core_id: int) -> CoreLoad:
        """The :class:`CoreLoad` for ``core_id``."""
        for c in self.cores:
            if c.core_id == core_id:
                return c
        raise KeyError(f"core {core_id} not in view")

    def task_map(self) -> Dict[ChareKey, int]:
        """chare -> core_id mapping implied by the view."""
        return {t.chare: c.core_id for c in self.cores for t in c.tasks}


class _MigrationFields(NamedTuple):
    chare: ChareKey
    src: int
    dst: int


class Migration(_MigrationFields):
    """One balancer decision: move ``chare`` from core ``src`` to ``dst``."""

    __slots__ = ()

    def __new__(cls, chare: ChareKey, src: int, dst: int) -> "Migration":
        if src == dst:
            raise ValueError(f"migration of {chare} to its own core {src}")
        return _new(cls, (chare, src, dst))


def validate_migrations(view: LBView, migrations: Sequence[Migration]) -> None:
    """Raise ``ValueError`` unless ``migrations`` are consistent with ``view``.

    Checks: every chare exists, its ``src`` matches the view's mapping, the
    destination core is part of the view, and no chare moves twice.
    """
    if not migrations:
        return
    mapping = view.task_map()
    valid_cores = {c.core_id for c in view.cores}
    moved = set()
    for m in migrations:
        if m.chare not in mapping:
            raise ValueError(f"migration of unknown chare {m.chare}")
        if mapping[m.chare] != m.src:
            raise ValueError(
                f"chare {m.chare} is on core {mapping[m.chare]}, not {m.src}"
            )
        if m.dst not in valid_cores:
            raise ValueError(f"migration targets core {m.dst} outside the job")
        if m.chare in moved:
            raise ValueError(f"chare {m.chare} migrated twice in one step")
        moved.add(m.chare)


class LBDatabase:
    """Runtime-side accumulator building :class:`LBView` snapshots.

    The LB window is one CPU list per core, aligned with that core's
    chare keys in sorted order. :meth:`layout` lays it out from the
    chare mapping; the runtimes call it at launch and again after every
    LB step that migrated. Between LB steps each completed entry method
    adds its CPU time at its chare's position (:meth:`record_task`, or
    in place through :meth:`core_window`). At an LB step,
    :meth:`build_view` combines the per-core lists with ``/proc/stat``
    deltas to compute each core's O_p (Eq. 2), then :meth:`reset_window`
    starts the next window.

    Parameters
    ----------
    procstat:
        OS-counter view restricted to the application's cores and owner tag.
    state_bytes:
        chare -> serialised size used for migration-cost-aware balancing.
    comm:
        chare -> ``{partner: bytes per iteration}``, copied into each
        task record's ``comm``.

    Sizes and comm volumes are checked here, once per run (and by
    :meth:`set_state_bytes`), so :meth:`build_view` need not re-check
    them at every LB step.
    """

    def __init__(
        self,
        procstat: ProcStat,
        state_bytes: Optional[Mapping[ChareKey, float]] = None,
        comm: Optional[Mapping[ChareKey, Mapping[ChareKey, float]]] = None,
    ) -> None:
        self._procstat = procstat
        self._state_bytes: Dict[ChareKey, float] = dict(state_bytes or {})
        for chare, nbytes in self._state_bytes.items():
            if not (type(nbytes) is float and 0.0 <= nbytes < _INF):
                check_non_negative(f"state_bytes of {chare}", nbytes)
        self._comm: Dict[ChareKey, Tuple[Tuple[ChareKey, float], ...]] = {
            chare: tuple(sorted(partners.items()))
            for chare, partners in (comm or {}).items()
        }
        for chare, partners in self._comm.items():
            for other, nbytes in partners:
                if nbytes < 0:
                    raise ValueError(
                        f"negative comm volume {nbytes} to {other} on {chare}"
                    )
                check_finite(f"comm volume to {other} on {chare}", nbytes)
        # the layout: core_id -> (core_id, keys, cpus, sizes, comms), the
        # lists aligned, in /proc/stat's core order
        self._cores: Dict[int, tuple] = {
            cid: (cid, [], [], [], []) for cid in procstat.core_ids()
        }
        # chare -> (its core's cpus, position), made by the first
        # record_task of a layout (the fast path adds in place instead)
        self._slot: Optional[Dict[ChareKey, Tuple[List[float], int]]] = None
        self._laid_out: Optional[Mapping[ChareKey, int]] = None
        # CPU recorded for chares outside the layout (kept until laid out)
        self._unplaced: Dict[ChareKey, float] = {}
        self._window_start: Dict[int, CoreStatSnapshot] = procstat.snapshot_all()
        # snapshots the last build_view took (see reset_window)
        self._view_snaps: Optional[Dict[int, CoreStatSnapshot]] = None

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def layout(self, mapping: Mapping[ChareKey, int]) -> None:
        """Lay the window out from ``mapping`` (chare -> core).

        Each core gets its chare keys in sorted order and a CPU list
        aligned with them. CPU already recorded for a chare moves with
        it, so a layout may come at any point of a window; the runtimes
        lay out at launch and after each LB step that migrated, when the
        window is empty. :meth:`core_window` lists handed out earlier
        are not updated.
        """
        keys_of: Dict[int, List[ChareKey]] = {cid: [] for cid in self._cores}
        for chare, core_id in mapping.items():
            keys = keys_of.get(core_id)
            if keys is None:
                raise ValueError(
                    f"chare {chare} mapped to core {core_id} outside the job"
                )
            keys.append(chare)
        recorded = self._unplaced
        for _cid, keys, cpus, _sizes, _comms in self._cores.values():
            recorded.update(zip(keys, cpus))
        pop = recorded.pop
        state_bytes = self._state_bytes
        comm = self._comm
        cores = {}
        for core_id, keys in keys_of.items():
            keys.sort()
            cores[core_id] = (
                core_id,
                keys,
                [pop(chare, 0.0) for chare in keys],
                [state_bytes.get(chare, 0.0) for chare in keys],
                [comm.get(chare, ()) for chare in keys],
            )
        self._cores = cores
        self._slot = None
        self._laid_out = mapping

    def core_window(self, core_id: int) -> Tuple[List[ChareKey], List[float]]:
        """``core_id``'s chare keys in sorted order and its CPU list.

        The CPU list is the LB window itself: an engine may add a task's
        CPU time at its chare's position instead of calling
        :meth:`record_task`. Both lists belong to the current layout.
        """
        _cid, keys, cpus, _sizes, _comms = self._cores[core_id]
        return keys, cpus

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def record_task(self, chare: ChareKey, cpu_time: float) -> None:
        """Add one entry-method execution's CPU time to the window."""
        # hot path (one call per task execution): validate with two inline
        # comparisons; defer to the full checker only to raise
        if not (type(cpu_time) is float and 0.0 <= cpu_time < _INF):
            check_non_negative("cpu_time", cpu_time)
        slots = self._slot
        if slots is None:
            slots = self._slot = {
                chare: (cpus, i)
                for _cid, keys, cpus, _sizes, _comms in self._cores.values()
                for i, chare in enumerate(keys)
            }
        slot = slots.get(chare)
        if slot is None:
            unplaced = self._unplaced
            unplaced[chare] = unplaced.get(chare, 0.0) + cpu_time
        else:
            cpus, i = slot
            cpus[i] += cpu_time

    def set_state_bytes(self, chare: ChareKey, nbytes: float) -> None:
        """Register/refresh a chare's serialised size."""
        check_non_negative("nbytes", nbytes)
        self._state_bytes[chare] = nbytes
        for _cid, keys, _cpus, sizes, _comms in self._cores.values():
            if chare in keys:
                sizes[keys.index(chare)] = nbytes

    # ------------------------------------------------------------------
    # view construction
    # ------------------------------------------------------------------
    def build_view(self, mapping: Mapping[ChareKey, int]) -> LBView:
        """Snapshot the current window as an :class:`LBView`.

        Each core's task records are in chare order, built from the
        core's window list, with the core's CPU sum stored on its
        :class:`CoreLoad`.

        Parameters
        ----------
        mapping:
            Current chare -> core assignment from the runtime. Unless it
            is the mapping object the window was last laid out from, the
            window is laid out from it first; a runtime that changes its
            mapping in place calls :meth:`layout` itself.
        """
        if mapping is not self._laid_out:
            self.layout(mapping)
        snaps = self._view_snaps = self._procstat.snapshot_all()
        window_start = self._window_start
        background_load = ProcStat.background_load
        cores = []
        window = 0.0
        for cid, keys, cpus, sizes, comms in self._cores.values():
            delta = snaps[cid].delta(window_start[cid])
            window = max(window, delta.time)
            # every term is a checked non-negative float, so a finite sum
            # means finite terms
            task_sum = left_sum(cpus)
            if not 0.0 <= task_sum < _INF:
                for cpu in cpus:
                    check_non_negative("cpu_time", cpu)
            tasks = tuple(map(_task_record, zip(keys, cpus, sizes, comms)))
            bg = background_load(delta, task_sum)
            if not 0.0 <= bg < _INF:
                check_non_negative("bg_load", bg)
            cores.append(_new(CoreLoad, (cid, tasks, bg, task_sum)))
        return LBView(cores=tuple(cores), window=window)

    def reset_window(self) -> None:
        """Zero the window and re-baseline ``/proc/stat``.

        The per-core lists are zeroed in place, so lists handed out by
        :meth:`core_window` stay the window. Right after
        :meth:`build_view`, at the same simulated time, the view's
        snapshots are still the current counters (they move only as the
        clock does), so they become the new baseline; once the clock has
        moved, fresh snapshots are taken.
        """
        for _cid, _keys, cpus, _sizes, _comms in self._cores.values():
            cpus[:] = repeat(0.0, len(cpus))
        self._unplaced.clear()
        snaps = self._view_snaps
        if snaps is None or not self._procstat.is_current(snaps):
            snaps = self._procstat.snapshot_all()
        self._window_start = snaps
