"""Fast-path simulation backend: whole-iteration analytic advancement.

The event engine executes one heap-scheduled callback per task dispatch,
completion projection, and barrier — faithful, but most of a sweep's wall
clock goes to Python event dispatch rather than LB decisions. This module
exploits the structure of the workloads this harness simulates
(barrier-synchronized iterative jobs under proportional-share cores, the
same structure RUPER-LB and "Anticipating Load Imbalance" model
analytically per balancing interval) to advance whole iterations at a
time, dropping to an exact event-by-event *replay* only where jobs
actually interact.

Exactness contract
------------------
The fast path is **bit-identical** to the event engine — not approximately
equal. Every float the event engine folds (per-core busy/idle/owner CPU
accrual, per-task CPU time, iteration wall times, Eq.-(2) background
loads, migration costs, energy) is folded here in the same order with the
same primitive operations, so IEEE-754 produces the same bits:

* **Solo cores** (no co-runner can touch the core mid-iteration): a task
  chain under processor sharing with a single runnable process completes
  at the fold ``end_k = end_{k-1} + demand_k`` — exactly the floats the
  engine's dispatch/projection events produce, because a solo share is
  ``w/w == 1.0`` and ``dt * 1.0 == dt``. One call per iteration folds
  every solo core of the job, one scalar loop per core that evaluates
  each task's work as it folds it; all solo cores reach the barrier
  through one arrival event at the latest of their end times. The
  engine's completion-epsilon re-projection (``remaining > 1e-9`` at the
  projected completion) is replayed inside that loop in the same exact
  form.
* **Contended cores** (application and background sharing a core, the
  paper's Figure 1 mechanism, or a background core the power meter
  reads when the application finishes): an exact event *replay*. At
  each change of the core's runnable set it accrues every process's
  share with the arithmetic of :meth:`~repro.sim.cpu.SharedCore._accrue`
  and pushes one candidate completion, the earliest of the projections
  :meth:`~repro.sim.cpu.SharedCore._changed` would schedule. A
  completion records the task and dispatches the core's next one in
  place, without a new process object.
* **Everything else** is the event engine's own code, not a copy of
  it: each fast job is a :class:`~repro.runtime.runtime.Job`, as each
  event :class:`~repro.runtime.runtime.Runtime` is, so the chares and
  their placement, the LB window opened at launch, the communication
  delay, the due check, the whole LB step (view, balancer, migration,
  audit, lineage, ledger pause) and the run's counters are one
  implementation, and :func:`~repro.experiments.runner.run_jobs` drives,
  probes and meters both backends' runs. The real
  :class:`~repro.core.database.LBDatabase`,
  :class:`~repro.sim.procstat.ProcStat` and power-meter reading operate
  on duck-typed fast cores. Task CPU times enter the database's LB
  window, at each chare's position in its core's list, only when the
  job has a balancer, the window's one reader. Per-core iteration walls
  and their imbalance ratio are folded only for a policy that reads
  them (``reads_imbalance``).

A core is folded solo only while no *other* unfinished job can observe
it mid-iteration, either by running on it or by syncing it (the power
meter reads every core of the application's nodes when the application
finishes). While another job runs that split does not change, so
:func:`run_scenario_fast` hands each job its replayed cores: the
application's cores the background job shares, and the background
job's cores on the application's nodes. Once every other job of the run
has finished, the remaining job runs the rest of its iterations in
*inline mode*: solo folds, barriers and LB steps with the clock advanced
directly, without heap events.

With ``scenario.tracing`` the application's
:class:`~repro.runtime.tracing.TraceLog` receives the engine's records:
one ``TaskEvent`` per completion (from the completion sites of the solo
fold and the replay), one ``IterationEvent`` per barrier, and per LB
step one ``MigrationEvent`` per migration plus one ``LBStepEvent``. Each
core's tasks are appended in execution order, but solo cores are folded
one after another; the log sorts every iteration into its canonical
order, so the trace equals the engine's.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.cluster.netmodel import NetworkModel
from repro.cluster.node import Node
from repro.experiments.runner import ExperimentResult, run_jobs
from repro.experiments.scenario import Scenario
from repro.runtime.runtime import Job, bad_work_error
from repro.runtime.tracing import TaskEvent
from repro.sim.cpu import _COMPLETION_EPS, _clock_stalled
from repro.telemetry import AuditTrail
from repro.util import left_sum

# Not used here: the benchmark's layer tracer (bench/layers.py) patches
# ``apply_migrations`` in this module as well as in repro.runtime.runtime,
# where Job's LB step looks it up, and refuses to run if it is missing.
from repro.runtime.runtime import apply_migrations  # noqa: F401

__all__ = ["run_scenario_fast"]

ChareKey = Tuple[str, int]

# event kinds (heap entries are (time, seq, kind, obj, arg) tuples; the
# unique seq guarantees comparisons never reach obj)
_EV_LAUNCH = 0
_EV_BEGIN = 1
_EV_ARRIVE = 2
_EV_CMPL = 3
_EV_LB = 4


class _FastSim:
    """Minimal clock + event heap shared by all fast jobs of one run."""

    __slots__ = ("now", "_heap", "_seq", "unfinished")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple] = []
        self._seq: int = 0
        #: jobs of the run that have not finished (gates inline mode)
        self.unfinished: int = 0

    def push(self, time: float, kind: int, obj, arg) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, obj, arg))

    def run(self) -> None:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, kind, obj, arg = pop(heap)
            # stale candidates must not touch the clock: inline jobs may
            # have advanced it past this event's (dead) timestamp already
            if kind == _EV_CMPL:
                if arg == obj.version:  # else: stale candidate, skip
                    self.now = time
                    obj.on_completion(time)
            elif kind == _EV_ARRIVE:
                self.now = time
                obj._core_drained(time, arg)
            elif kind == _EV_BEGIN:
                self.now = time
                obj._begin_iteration(arg, time)
            elif kind == _EV_LB:
                self.now = time
                obj._lb_step(arg, time)
            else:  # _EV_LAUNCH
                self.now = time
                obj._launch(time)


_INF = float("inf")


class _FastProc:
    """One runnable task on a replayed core (mirrors SimProcess accrual).

    The object doubles as the job's per-core dispatch cursor: it is
    recycled for every task of its job's queue on ``core`` within an
    iteration, carrying the queue (``keys``/``chs``/``qpos``) and the
    core's LB window list (``cpus``, aligned with ``keys``; None without
    a balancer) so a completion can record its task and dispatch the
    next one without any dict lookups.
    """

    __slots__ = (
        "job", "key", "owner", "weight",
        "remaining", "cpu_time", "started_at", "cid", "rank",
        "keys", "chs", "cpus", "qpos",
    )

    def __init__(self, job, key, weight, remaining, started_at, cid, rank):
        self.job = job
        self.key = key
        self.owner = job.name
        self.weight = weight
        self.remaining = remaining
        self.cpu_time = 0.0
        self.started_at = started_at
        self.cid = cid
        self.rank = rank
        self.keys = ()
        self.chs = ()
        self.cpus = None
        self.qpos = 0


class _FastCore:
    """Duck-typed stand-in for :class:`~repro.sim.cpu.SharedCore`.

    Exposes exactly the surface :class:`~repro.sim.procstat.ProcStat`
    reads (``engine.now``, ``sync()``, ``busy_time``, ``idle_time``,
    ``owner_cpu``) plus the replay machinery. Accrual arithmetic is a
    verbatim transcription of ``SharedCore._accrue``.

    A fast core holds at most two processes: each job runs one task per
    core at a time, and a scenario has at most one background job. The
    two-process branches unpack ``p0, p1 = procs``, so a third process
    would raise rather than be ignored.
    """

    __slots__ = (
        "engine", "core_id", "speed", "busy_time", "idle_time",
        "cpu_by_owner", "last", "procs", "version",
        "ledger", "_cand_proc", "_cand_sched",
    )

    def __init__(self, sim: _FastSim, core_id: int) -> None:
        self.engine = sim  # named for ProcStat, which reads core.engine.now
        self.core_id = core_id
        self.speed = 1.0
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.cpu_by_owner: Dict[str, float] = {}
        self.last = sim.now
        self.procs: List[_FastProc] = []
        self.version = 0
        #: optional TimeLedger (null hook, mirrors SharedCore.ledger)
        self.ledger = None
        self._cand_proc = 0
        self._cand_sched = 0.0

    # -- ProcStat / audit surface -------------------------------------
    def sync(self) -> None:
        self.accrue(self.engine.now)

    def owner_cpu(self, owner: str) -> float:
        return self.cpu_by_owner.get(owner, 0.0)

    # -- replay machinery ----------------------------------------------
    def accrue(self, now: float) -> None:
        dt = now - self.last
        if dt > 0.0:
            if self.ledger is not None:
                self.ledger.accrue(self.core_id, self.last, now, self.procs)
            procs = self.procs
            if not procs:
                self.idle_time += dt
            elif len(procs) == 1:
                # sole runner: share == dt * (w/w) == dt exactly
                p = procs[0]
                self.busy_time += dt
                p.cpu_time += dt
                p.remaining -= dt * self.speed
                cbo = self.cpu_by_owner
                cbo[p.owner] = cbo.get(p.owner, 0.0) + dt
            else:
                # application + background task
                p0, p1 = procs
                total_w = p0.weight + p1.weight
                speed = self.speed
                self.busy_time += dt
                cbo = self.cpu_by_owner
                share = dt * (p0.weight / total_w)
                p0.cpu_time += share
                p0.remaining -= share * speed
                cbo[p0.owner] = cbo.get(p0.owner, 0.0) + share
                share = dt * (p1.weight / total_w)
                p1.cpu_time += share
                p1.remaining -= share * speed
                cbo[p1.owner] = cbo.get(p1.owner, 0.0) + share
            self.last = now
        elif dt < 0.0:  # pragma: no cover - classification bug guard
            raise RuntimeError(
                f"core {self.core_id}: accrual time moved backwards "
                f"({self.last} -> {now})"
            )

    def change(self, now: float) -> None:
        """Runnable set changed: invalidate and push the next candidate.

        The engine schedules one projected completion per runnable process
        and lets version stamps kill the stale ones; only the *earliest*
        (first-inserted on ties, matching dict order) ever fires validly,
        so pushing just that one is equivalent and halves heap traffic.

        Which of two tied processes goes first has not shown in any
        output: the two-process accrual advances both alike. Ties do
        occur (equal work and weight, started together), and
        ``test_corun_completion_tie_parity`` runs them, but with
        ``t1 <= t0`` it and every other parity test pass just as with
        ``t1 < t0``, so no test pins the rule.
        """
        self.version += 1
        procs = self.procs
        if not procs:
            return
        if len(procs) == 1:
            # sole runner: share w/w == 1.0 exactly, so rate == speed
            p = procs[0]
            rem = p.remaining
            if rem < 0.0:
                rem = 0.0
            self._cand_proc = 0
            self._cand_sched = now
            self.engine.push(now + rem / self.speed, _EV_CMPL, self, self.version)
            return
        p0, p1 = procs
        total_w = p0.weight + p1.weight
        speed = self.speed
        rem = p0.remaining
        if rem < 0.0:
            rem = 0.0
        t0 = now + rem / ((p0.weight / total_w) * speed)
        rem = p1.remaining
        if rem < 0.0:
            rem = 0.0
        t1 = now + rem / ((p1.weight / total_w) * speed)
        self._cand_sched = now
        if t1 < t0:  # strict: first-inserted wins ties
            self._cand_proc = 1
            self.engine.push(t1, _EV_CMPL, self, self.version)
        else:
            self._cand_proc = 0
            self.engine.push(t0, _EV_CMPL, self, self.version)

    def on_completion(self, t: float) -> None:
        procs = self.procs
        p = procs[self._cand_proc]
        sched = self._cand_sched
        self.accrue(t)
        rem = p.remaining
        if rem > _COMPLETION_EPS:
            # projection landed a hair early (float round-off): re-project
            # at the rate change() will use, unless that cannot advance t
            if len(procs) == 1:
                rate = self.speed
            else:
                rate = (p.weight / (procs[0].weight + procs[1].weight)) * self.speed
            if t + rem / rate == t:
                raise _clock_stalled(self.core_id, t, rem)
            self.change(t)
            return
        p.remaining = 0.0
        procs.pop(self._cand_proc)
        # task completion bookkeeping, fused inline (the replay loop's
        # single hottest block — one call frame instead of three)
        job = p.job
        cpu = p.cpu_time
        keys = p.keys
        pos = p.qpos
        # the task's LB window position is pos - 1 (see _run_solo_cores):
        # the share arithmetic only ever yields non-negative floats
        cpus = p.cpus
        if cpus is not None:
            cpus[pos - 1] += cpu
        if job.lineage is not None:
            job.lineage.record_sample(p.key, job._iteration, p.cid, cpu)
        if job.trace.enabled:
            job.trace.add_task(
                TaskEvent(p.cid, p.key, job._iteration, p.started_at, t, cpu)
            )
        walls = job._iter_core_wall
        if walls is not None:
            # _begin_iteration pre-seeds every core id with 0.0
            walls[p.cid] += t - p.started_at
        job._completions.append((t, sched, p.rank, cpu))
        if pos < len(keys):
            # dispatch the core's next task inline, recycling the proc
            # object (it just left self.procs and nothing else holds it;
            # it carries the queue cursor, so no dict lookups here). The
            # accrue(t) above guarantees self.last == t, so no re-accrual.
            p.qpos = pos + 1
            nxt = p.chs[pos]
            d = nxt.work(job._iteration)
            if not 0.0 <= d < _INF:
                raise bad_work_error(nxt, job._iteration, d)
            p.key = keys[pos]
            p.remaining = d
            p.cpu_time = 0.0
            p.started_at = t
            procs.append(p)
            self.change(t)
            return
        # re-project the surviving co-runner before the barrier hears of
        # the drain, as the engine's completion does (_changed() before
        # the callback): an event the barrier schedules at this instant
        # (a zero communication delay) then queues behind the projection
        self.change(t)
        job._core_drained(t, 1)


class _FastJob(Job):
    """One job on the fast path: a :class:`~repro.runtime.runtime.Job`
    whose iterations run as solo folds, replayed cores or inline.

    ``replayed`` holds the cores that must be replayed while another job
    of the run is unfinished: the cores both jobs run on, and, for the
    background job, its cores the power meter reads when the
    application finishes. The split is fixed for the run's layout, so
    it is made once per layout, with the per-core entries.
    """

    def __init__(
        self,
        sim: _FastSim,
        core_ids: List[int],
        core_of: Callable[[int], _FastCore],
        cores_per_node: int,
        *,
        replayed: FrozenSet[int],
        **job,
    ) -> None:
        super().__init__(core_ids, core_of, cores_per_node, **job)
        self.sim = sim
        self._replayed = replayed
        self._arrived = 0
        self._expected = 0
        # per-iteration completion buffer: (end, sched, core_rank, cpu).
        # Sorted at the barrier, this reproduces the engine's chronological
        # (time, event-seq) fold order for total_task_cpu_s.
        self._completions: List[Tuple[float, float, int, float]] = []
        # the (rank, cid, core, keys, chares, cpus) entry of each non-empty
        # core in rank order: the LB window's sorted keys, the chares in
        # key order and the window's CPU list (None without a balancer);
        # rebuilt when the mapping changes, with its solo/replay split
        self._percore_ranks: List[tuple] = []
        self._solo_ranks: List[tuple] = []
        self._replay_ranks: List[tuple] = []
        self._percore_dirty = True
        sim.unfinished += 1

    def _schedule_launch(self, at: Optional[float]) -> None:
        self.sim.push(self.sim.now if at is None else at, _EV_LAUNCH, self, 0)

    def _launch(self, t: float) -> None:
        self._open_window()
        self._begin_iteration(0, t)

    def _mapping_changed(self) -> None:
        super()._mapping_changed()
        self._percore_dirty = True

    def _finish(self, t: float) -> None:
        self.sim.unfinished -= 1
        super()._finish(t)

    # ------------------------------------------------------------------
    # iteration machinery
    # ------------------------------------------------------------------
    def _rebuild_percore(self) -> None:
        core_window = self.db.core_window
        windowed = self.balancer is not None
        chares = self.chares
        cores = self.cores
        replayed = self._replayed
        ranks = []
        solo = []
        replay = []
        for rank, cid in enumerate(self.core_ids):
            keys, cpus = core_window(cid)
            if keys:
                entry = (
                    rank, cid, cores[cid], keys, [chares[k] for k in keys],
                    cpus if windowed else None,
                )
                ranks.append(entry)
                (replay if cid in replayed else solo).append(entry)
        self._percore_ranks = ranks
        self._solo_ranks = solo
        self._replay_ranks = replay
        self._percore_dirty = False

    def _alone(self) -> bool:
        """True when every other job of the run is finished.

        From that point on nothing outside this job can schedule events,
        run on its cores, or read the clock, so the whole remainder of the
        run — iterations, barriers, LB steps, the finish callbacks — can
        execute inline with ``sim.now`` advanced directly, without a
        single heap event.
        """
        return self.sim.unfinished == 1

    def _begin_iteration(self, iteration: int, T: float) -> None:
        if self._alone():
            self._run_inline(iteration, T)
            return
        self._open_iteration(iteration, T)
        self._arrived = 0
        self._expected = len(self.core_ids)
        if self._percore_dirty:
            self._rebuild_percore()
        # another job is unfinished: cores it can run on or read mid-
        # iteration are replayed, the rest folded
        solo = self._solo_ranks
        if solo:
            end = self._run_solo_cores(solo, iteration, T)
        for entry in self._replay_ranks:
            self._dispatch(entry, T)
        if solo:  # the solo cores arrive together, at the last one's end
            self.sim.push(end, _EV_ARRIVE, self, len(solo))
        empty = len(self.core_ids) - len(self._percore_ranks)
        if empty:  # object-less cores arrive instantly
            self._core_drained(T, empty)

    # -- solo-analytic advancement -------------------------------------
    def _run_solo_cores(self, ranks: List[tuple], iteration: int, T: float) -> float:
        """Advance the whole iteration of every core in ``ranks`` without
        events, one core after another.

        ``ranks`` holds ``(rank, cid, core, keys, chares, cpus)`` entries
        in rank order. Returns the latest barrier-arrival time among them,
        and ``T`` if none is later. Every fold replicates the accrual the
        engine performs at the corresponding dispatch or completion event
        (solo share is exactly 1.0, so each task's accrued CPU equals
        ``end_k - end_{k-1}``).
        """
        led = self.ledger
        lin = self.lineage
        tr = self.trace if self.trace.enabled else None
        hooked = led is not None or lin is not None or tr is not None
        # each task's CPU goes straight into the LB window list ``cpus``
        # at the task's position — the record_task wrapper only adds
        # validation, and each demand is checked finite and non-negative
        # below. Only a balancer reads the window (cpus is None without
        # one), and only an imbalance-reading policy the walls.
        append = self._completions.append
        walls = self._iter_core_wall
        name = self.name
        eps = _COMPLETION_EPS
        inf = _INF
        last = T
        for rank, cid, core, keys, chs, cpus in ranks:
            dt = T - core.last
            if dt > 0.0:  # idle gap since the core's last activity
                if led is not None:
                    # no runnable procs in the gap: idle, or LB pause
                    led.accrue(cid, core.last, T, ())
                core.idle_time += dt
            busy = core.busy_time
            own = core.cpu_by_owner.get(name, 0.0)
            wall = 0.0
            t = T
            for i, ch in enumerate(chs):
                d = ch.work(iteration)
                if not 0.0 <= d < inf:
                    raise bad_work_error(ch, iteration, d)
                start = t
                sched = t
                e = t + d
                c = e - t
                rem = d - c
                busy += c
                own += c
                cpu = c
                t = e
                while rem > eps:
                    # engine re-projection: new event at t + remaining
                    sched = t
                    e = t + rem
                    if e == t:
                        raise _clock_stalled(cid, t, rem)
                    dtx = e - t
                    busy += dtx
                    own += dtx
                    cpu += dtx
                    rem -= dtx
                    t = e
                if cpus is not None:
                    cpus[i] += cpu
                if hooked:
                    k = keys[i]
                    if lin is not None:
                        lin.record_sample(k, iteration, cid, cpu)
                    if tr is not None:
                        tr.add_task(TaskEvent(cid, k, iteration, start, t, cpu))
                    if led is not None:
                        led.accrue_app(cid, start, t, k)
                if walls is not None:
                    wall += t - start
                append((t, sched, rank, cpu))
            core.busy_time = busy
            core.cpu_by_owner[name] = own
            core.last = t
            if walls is not None:
                walls[cid] = wall
            if t > last:
                last = t
        return last

    # -- replay path ----------------------------------------------------
    def _dispatch(self, entry: tuple, t: float) -> None:
        """Start a replayed core's iteration with its first task."""
        rank, cid, core, keys, chs, cpus = entry
        ch = chs[0]
        d = ch.work(self._iteration)
        if not 0.0 <= d < _INF:
            raise bad_work_error(ch, self._iteration, d)
        if core.last != t:  # zero-width accruals are no-ops
            core.accrue(t)
        p = _FastProc(self, keys[0], self.weight, d, t, cid, rank)
        p.keys = keys
        p.chs = chs
        p.cpus = cpus
        p.qpos = 1
        core.procs.append(p)
        core.change(t)

    # -- barrier --------------------------------------------------------
    def _core_drained(self, t: float, n: int) -> None:
        """``n`` cores reached the barrier at ``t``."""
        self._arrived += n
        if self._arrived == self._expected:
            self._end_iteration(t)

    def _barrier_bookkeeping(self, t: float) -> int:
        """Record one finished iteration; return the completed count."""
        self._record_iteration(t)
        comps = self._completions
        if comps:
            # chronological (time, schedule-time, core) order == the event
            # engine's completion order, up to ties with zero-work tasks,
            # whose 0.0 terms leave the sum unchanged; fold task CPU in
            # that order
            comps.sort()
            self.total_task_cpu_s = left_sum(
                map(itemgetter(3), comps), self.total_task_cpu_s
            )
            del comps[:]
        return self._iteration + 1

    def _end_iteration(self, t: float) -> None:
        completed = self._barrier_bookkeeping(t)
        if completed == self._total_iterations:
            self._finish(t)
            return
        delay = self.comm_delay()
        kind = _EV_LB if self._lb_due(completed) else _EV_BEGIN
        self.sim.push(t + delay, kind, self, completed)

    def _lb_step(self, next_iteration: int, t: float) -> None:
        pause = self._balance(next_iteration, t)
        self.sim.push(t + pause, _EV_BEGIN, self, next_iteration)

    def _run_inline(self, iteration: int, T: float) -> None:
        """Run the rest of the job inline — no heap events at all.

        Only entered once :meth:`_alone` holds, which is permanent
        (jobs never un-finish), so the clock can be advanced directly:
        every side effect (LB database snapshots, audit commits, the
        power reading at finish) sees exactly the time the event engine
        would have shown it.
        """
        sim = self.sim
        while True:
            self._open_iteration(iteration, T)
            if self._percore_dirty:
                self._rebuild_percore()
            sim.now = T
            # barrier = last core's arrival (empty cores arrive at T)
            t = self._run_solo_cores(self._percore_ranks, iteration, T)
            sim.now = t
            completed = self._barrier_bookkeeping(t)
            if completed == self._total_iterations:
                self._finish(t)
                return
            delay = self.comm_delay()
            if self._lb_due(completed):
                t_lb = t + delay
                sim.now = t_lb
                T = t_lb + self._balance(completed, t_lb)
            else:
                T = t + delay
            iteration = completed


# ----------------------------------------------------------------------
# scenario driver
# ----------------------------------------------------------------------
def run_scenario_fast(
    scenario: Scenario,
    *,
    audit: Optional[AuditTrail] = None,
    ledger=None,
    lineage=None,
) -> ExperimentResult:
    """Execute ``scenario`` on the fast path (see module docstring).

    Builds the run's fast cores and its two jobs, then runs them through
    :func:`~repro.experiments.runner.run_jobs`, which the event
    engine's runs go through too: ``audit``, ``ledger`` and ``lineage`` attach as
    they do there. Returns the same
    :class:`~repro.experiments.runner.ExperimentResult` as
    :func:`~repro.experiments.runner.run_scenario`, bit-identical — its
    trace included when ``scenario.tracing`` is set.
    """
    sim = _FastSim()
    cores: Dict[int, _FastCore] = {}
    cores_per_node = scenario.cores_per_node
    num_cores_total = scenario.num_nodes * cores_per_node

    def get_core(cid: int) -> _FastCore:
        core = cores.get(cid)
        if core is None:
            if not 0 <= cid < num_cores_total:
                raise ValueError(f"core id {cid} outside the cluster")
            core = _FastCore(sim, cid)
            cores[cid] = core
        return core

    net = scenario.net or NetworkModel.native()

    def build_job(model, core_ids, replayed, *, use_comm_graph=False, **job):
        graph = model.job_comm_graph(len(core_ids), use_comm_graph)
        fast_job = _FastJob(
            sim,
            core_ids,
            get_core,
            cores_per_node,
            replayed=replayed,
            net=net,
            comm_bytes=model.comm_bytes(len(core_ids)),
            comm_graph=graph,
            **job,
        )
        fast_job.register_array(model.build_array(len(core_ids)))
        return fast_job

    app_core_ids = list(scenario.app_core_ids)
    # the power meter reads every core of the application's nodes when
    # the application finishes
    app_node_ids = sorted({cid // cores_per_node for cid in app_core_ids})
    app_replayed = bg_replayed = frozenset()
    if scenario.bg is not None:
        app_replayed = frozenset(app_core_ids).intersection(scenario.bg.core_ids)
        bg_replayed = frozenset(
            cid for cid in scenario.bg.core_ids
            if cid // cores_per_node in app_node_ids
        )
    app = build_job(
        scenario.app,
        app_core_ids,
        app_replayed,
        use_comm_graph=scenario.use_comm_graph,
        name="app",
        balancer=scenario.balancer,
        policy=scenario.policy,
        tracing=scenario.tracing,
        audit=audit,
    )
    bg = None
    if scenario.bg is not None:
        bg = build_job(
            scenario.bg.model,
            list(scenario.bg.core_ids),
            bg_replayed,
            name="bg",
            weight=scenario.bg.weight,
        )
    # the metered nodes hold the cores the run touches; an untouched
    # core's busy time is an exact 0.0, which leaves each sum unchanged
    nodes = [
        Node(nid, [
            cores[cid]
            for cid in range(nid * cores_per_node, (nid + 1) * cores_per_node)
            if cid in cores
        ])
        for nid in app_node_ids
    ]
    return run_jobs(scenario, sim, app, bg, nodes, ledger=ledger, lineage=lineage)
