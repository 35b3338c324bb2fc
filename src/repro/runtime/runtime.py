"""The runtime: one parallel job of migratable objects.

A :class:`Runtime` drives a tightly coupled iterative application:

1. **Iteration.** For every core the job uses, enqueue one
   :class:`~repro.runtime.messages.ComputeMsg` per chare mapped there; the
   per-core :class:`~repro.runtime.scheduler.CoreScheduler` executes them
   back-to-back under processor sharing.
2. **Barrier.** The iteration ends when every core drains — one interfered
   straggler stalls everyone (the paper's Figure 1 mechanism).
3. **Communication.** Before the next iteration the job pays a halo
   exchange plus reduction-tree delay from its
   :class:`~repro.cluster.netmodel.NetworkModel`.
4. **Load balancing.** When the :class:`~repro.core.policies.LBPolicy`
   says a step is due, the runtime builds an
   :class:`~repro.core.database.LBView` from its instrumentation database
   (task CPU times + Eq.-(2) background loads), asks the balancer for
   migrations, applies them to the object mapping, and charges the
   migration transfer time plus decision overhead before resuming —
   the paper's wall-clock times "include the time taken for object
   migration".

Several runtimes may share one engine and cluster: the measured 2-core
background job of Figure 2 is simply a second ``Runtime`` with its own
owner tag and (optionally) OS weight, co-located on two of the
application's cores.

Steps 3 and 4, the LB window and the run's counters live in :class:`Job`,
which the fast path (:mod:`repro.sim.fastpath`) subclasses too; a
``Runtime`` adds only the event-driven execution of steps 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.netmodel import NetworkModel
from repro.core.balancer import LoadBalancer
from repro.core.database import LBDatabase, Migration
from repro.core.policies import LBPolicy
from repro.runtime.chare import Chare, ChareArray
from repro.runtime.commgraph import CommGraph
from repro.runtime.messages import ComputeMsg
from repro.runtime.reductions import Reduction
from repro.runtime.scheduler import CoreScheduler
from repro.runtime.tracing import (
    IterationEvent,
    LBStepEvent,
    MigrationEvent,
    TaskEvent,
    TraceLog,
)
from repro.sim.cpu import SharedCore
from repro.sim.engine import SimulationEngine
from repro.sim.process import SimProcess
from repro.sim.procstat import ProcStat
from repro.telemetry import AuditTrail
from repro.util import check_non_negative, check_positive, get_logger, left_sum

__all__ = ["Job", "Runtime", "RunStats", "compute_comm_delay", "apply_migrations"]

ChareKey = Tuple[str, int]
_log = get_logger(__name__)
_new = tuple.__new__
_INF = float("inf")


def bad_work_error(chare: Chare, iteration: int, demand) -> ValueError:
    """The one-line error both backends raise for chare work that is not
    a finite non-negative demand (what :class:`SimProcess` refuses)."""
    return ValueError(
        f"{chare!r}.work({iteration}) returned {demand!r}, "
        "not a finite non-negative demand"
    )


def compute_comm_delay(
    *,
    net: NetworkModel,
    num_cores: int,
    comm_bytes: float = 0.0,
    comm_graph: Optional["CommGraph"] = None,
    mapping: Optional[Dict[ChareKey, int]] = None,
    node_of: Optional[Dict[int, int]] = None,
    local_comm_factor: float = 0.25,
) -> float:
    """Per-iteration communication delay: halo exchange + reduction tree.

    Shared by the event-driven :class:`Runtime` and the fast-path backend
    (:mod:`repro.sim.fastpath`) so both charge bit-identical delays. With a
    :class:`CommGraph`, the halo term is the slowest core's effective
    external traffic under the *current* ``mapping``; without one, the flat
    ``comm_bytes`` is used.
    """
    if comm_graph is not None:
        per_core = comm_graph.per_core_external_bytes(
            mapping if mapping is not None else {},
            node_of=node_of,
            local_factor=local_comm_factor,
        )
        worst = max(per_core.values(), default=0.0)
        halo = net.message_time(worst) if worst > 0 else 0.0
    else:
        halo = net.message_time(comm_bytes) if comm_bytes else 0.0
    tree = Reduction.tree_latency(num_cores, net)
    return halo + tree


def apply_migrations(
    migrations: Sequence[Migration],
    *,
    chares: Dict[ChareKey, Chare],
    mapping: Dict[ChareKey, int],
    net: NetworkModel,
    node_of: Dict[int, int],
    local_comm_factor: float,
) -> float:
    """Re-map objects in place and return the transfer wall-clock cost.

    Transfers proceed in parallel across cores but serialise per core's
    link: cost = max over cores of its inbound+outbound sum. Migrations
    between cores of the same node move through shared memory and are
    discounted by ``local_comm_factor``. Mutates ``mapping`` and each
    migrated chare's ``current_core`` exactly as the event-driven runtime
    does.
    """
    per_core: Dict[int, float] = {}
    for m in migrations:
        chare = chares[m.chare]
        t = net.migration_time(chare.state_bytes)
        if node_of.get(m.src) == node_of.get(m.dst):
            t *= local_comm_factor
        per_core[m.src] = per_core.get(m.src, 0.0) + t
        per_core[m.dst] = per_core.get(m.dst, 0.0) + t
        mapping[m.chare] = m.dst
        chare.current_core = m.dst
        chare.on_migrate(m.src, m.dst)
    return max(per_core.values(), default=0.0)


@dataclass(frozen=True)
class RunStats:
    """Summary of one completed run.

    Attributes
    ----------
    name:
        Job name (accounting tag).
    finished_at:
        Simulated completion time of the last iteration's barrier.
    iterations:
        Number of iterations executed.
    iteration_times:
        Wall time of each iteration (compute + barrier only; inter-
        iteration communication/LB gaps are *between* entries).
    lb_steps:
        Number of LB invocations.
    total_migrations:
        Objects moved across all steps.
    total_migration_cost_s:
        Wall-clock charged for state transfer.
    total_task_cpu_s:
        CPU-seconds consumed by the job's entry methods.
    """

    name: str
    finished_at: float
    iterations: int
    iteration_times: Tuple[float, ...]
    lb_steps: int
    total_migrations: int
    total_migration_cost_s: float
    total_task_cpu_s: float


class Job:
    """One barrier-synchronized iterative job, whatever executes it.

    The paper's balancing step is one procedure: every period the
    runtime gives the balancer the instrumented view (task CPU times
    plus the Eq.-(2) background loads from ``/proc/stat``), applies the
    migrations it returns and charges their transfer time before the
    next iteration. A job holds that procedure and everything else both
    executors know about the job: its chares and their mapping, the LB
    window it opens at launch, the communication delay between
    iterations, the audit, ledger and lineage hooks, the trace and the
    run's counters. The event-driven :class:`Runtime` and the fast path
    (:mod:`repro.sim.fastpath`) subclass it; each keeps only how an
    iteration's tasks execute and how its clock moves.

    ``core_of`` looks up the core object of each id (a
    :class:`~repro.sim.cpu.SharedCore`, or a stand-in with the surface
    :class:`~repro.sim.procstat.ProcStat` reads); the node of a core is
    its id divided by ``cores_per_node``. The other parameters are
    :class:`Runtime`'s.
    """

    def __init__(
        self,
        core_ids: Sequence[int],
        core_of: Callable[[int], SharedCore],
        cores_per_node: int,
        *,
        name: str = "app",
        weight: float = 1.0,
        net: Optional[NetworkModel] = None,
        balancer: Optional[LoadBalancer] = None,
        policy: Optional[LBPolicy] = None,
        comm_bytes: float = 0.0,
        comm_graph: Optional["CommGraph"] = None,
        local_comm_factor: float = 0.25,
        tracing: bool = False,
        audit: Optional[AuditTrail] = None,
    ) -> None:
        if not core_ids:
            raise ValueError("Runtime needs at least one core")
        if len(set(core_ids)) != len(core_ids):
            raise ValueError("core_ids contains duplicates")
        check_positive("weight", weight)
        check_non_negative("comm_bytes", comm_bytes)
        check_non_negative("local_comm_factor", local_comm_factor)
        self.core_ids: List[int] = list(core_ids)
        #: the job's cores by id, in ``core_ids`` order
        self.cores: Dict[int, SharedCore] = {
            cid: core_of(cid) for cid in self.core_ids
        }
        self.name = name
        self.weight = float(weight)
        self.net = net or NetworkModel.native()
        self.balancer = balancer
        self.policy = policy or LBPolicy()
        self.comm_bytes = float(comm_bytes)
        self.comm_graph = comm_graph
        self.local_comm_factor = float(local_comm_factor)
        self._node_of: Dict[int, int] = {
            cid: cid // cores_per_node for cid in self.core_ids
        }
        self.trace = TraceLog(enabled=tracing)
        self.audit = audit
        #: optional :class:`~repro.obs.ledger.TimeLedger` fed iteration
        #: marks and LB pause windows (null hook: None by default;
        #: attached externally by the experiment runner)
        self.ledger = None
        #: optional :class:`~repro.obs.lineage.LineageRecorder` fed
        #: per-chare load samples and migration events (same null-hook
        #: doctrine as the ledger)
        self.lineage = None
        if balancer is not None:
            balancer.attach_audit(audit)

        self.arrays: Dict[str, ChareArray] = {}
        self.chares: Dict[ChareKey, Chare] = {}
        self.mapping: Dict[ChareKey, int] = {}

        self.db: Optional[LBDatabase] = None
        self._total_iterations = 0
        self._iteration = 0
        self._iter_started = 0.0
        self._started = False
        self.finished_at: Optional[float] = None
        self.iteration_times: List[float] = []
        self.lb_step_count = 0
        self.migration_count = 0
        self.migration_cost_s = 0.0
        self.total_task_cpu_s = 0.0
        self._on_finish: List[Callable[["Job"], None]] = []
        self._last_lb_completed = 0
        self._comm_delay_cache: Optional[float] = None
        #: only a policy that reads imbalance needs per-core walls
        self._reads_imbalance = balancer is not None and self.policy.reads_imbalance
        #: does this job fold per-core iteration walls? (each executor
        #: sets it; the fold itself is the executor's)
        self._folds_walls = self._reads_imbalance
        #: per-core wall of the current iteration, in ``core_ids`` order
        #: (None while no walls are folded)
        self._iter_core_wall: Optional[Dict[int, float]] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def register_array(
        self,
        array: ChareArray,
        mapping: Optional[Dict[ChareKey, int]] = None,
    ) -> None:
        """Add a chare array; default placement is block mapping."""
        if self._started:
            raise RuntimeError("cannot register arrays after start()")
        if array.name in self.arrays:
            raise ValueError(f"array {array.name!r} already registered")
        placement = mapping or array.block_mapping(self.core_ids)
        # validate the full placement before mutating any state
        for chare in array:
            if chare.key not in placement:
                raise ValueError(f"no placement for {chare.key}")
            if placement[chare.key] not in self.cores:
                raise ValueError(
                    f"{chare.key} placed on core {placement[chare.key]} "
                    "outside the job"
                )
        self.arrays[array.name] = array
        for chare in array:
            cid = placement[chare.key]
            self.chares[chare.key] = chare
            self.mapping[chare.key] = cid
            chare.current_core = cid
        self._mapping_changed()

    def on_finish(self, callback: Callable[["Job"], None]) -> None:
        """Register a completion callback (fires at the final barrier)."""
        self._on_finish.append(callback)

    def start(self, iterations: int, *, at: Optional[float] = None) -> None:
        """Schedule the job to run ``iterations`` iterations.

        Run the executor's clock afterwards (``engine.run()``). ``at``
        delays the job's launch (used to start interference mid-run).
        """
        check_positive("iterations", iterations)
        if self._started:
            raise RuntimeError("Runtime already started")
        if not self.chares:
            raise ValueError("no chare arrays registered")
        self._started = True
        self._total_iterations = int(iterations)
        self._schedule_launch(at)

    def _schedule_launch(self, at: Optional[float]) -> None:
        """Schedule the launch (:meth:`_open_window`, then the first
        iteration) at ``at``, or now."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        """Has the final iteration's barrier completed?"""
        return self.finished_at is not None

    @property
    def stats(self) -> RunStats:
        """Summary of the run (valid once :attr:`done`)."""
        if not self.done:
            raise RuntimeError(f"job {self.name!r} has not finished")
        return RunStats(
            name=self.name,
            finished_at=self.finished_at,
            iterations=self._total_iterations,
            iteration_times=tuple(self.iteration_times),
            lb_steps=self.lb_step_count,
            total_migrations=self.migration_count,
            total_migration_cost_s=self.migration_cost_s,
            total_task_cpu_s=self.total_task_cpu_s,
        )

    # ------------------------------------------------------------------
    # iteration bookkeeping
    # ------------------------------------------------------------------
    def _open_window(self) -> None:
        """Open the LB window at launch.

        Baselined at launch, not at construction, so a delayed job does
        not see pre-launch time. Every job snapshots its cores here,
        because the snapshot syncs them.
        """
        comm = None
        if self.comm_graph is not None:
            comm = {key: self.comm_graph.neighbors(key) for key in self.chares}
        self.db = LBDatabase(
            ProcStat(self.cores, self.name),
            {k: c.state_bytes for k, c in self.chares.items()},
            comm=comm,
        )
        self.db.layout(self.mapping)
        if self.audit is not None:
            self.audit.mark_launch(self._true_bg_cpu())

    def _open_iteration(self, iteration: int, start: float) -> None:
        """Mark iteration ``iteration`` as started at ``start``."""
        if self.ledger is not None:
            self.ledger.mark_iteration(iteration, start)
        if self.lineage is not None:
            self.lineage.mark_iteration(iteration, start)
        self._iteration = iteration
        self._iter_started = start
        if self._folds_walls:
            self._iter_core_wall = dict.fromkeys(self.core_ids, 0.0)

    def _record_iteration(self, end: float) -> None:
        """Trace and time the iteration whose barrier completed at ``end``."""
        if self.trace.enabled:
            self.trace.add_iteration(
                IterationEvent(self._iteration, self._iter_started, end)
            )
        self.iteration_times.append(end - self._iter_started)

    def _imbalance(self) -> float:
        """Max/mean per-core wall time of the just-finished iteration.

        Wall (not CPU) time: an interfered core's tasks stretch, so this
        ratio rises toward the interference slowdown factor even though
        the instrumented CPU loads stay flat — exactly the signal an
        adaptive trigger needs between LB windows. The walls are folded
        in ``core_ids`` order.
        """
        walls = self._iter_core_wall.values()
        mean = left_sum(walls) / len(walls)
        if mean <= 0.0:
            return 1.0
        return max(walls) / mean

    def _finish(self, now: float) -> None:
        self.finished_at = now
        for cb in self._on_finish:
            cb(self)

    def comm_delay(self) -> float:
        """Per-iteration communication: halo exchange + reduction tree.

        With a :class:`CommGraph`, the halo term is the slowest core's
        effective external traffic under the *current* mapping — so a
        locality-preserving balancer genuinely shortens this delay.
        Without one, the application-declared flat ``comm_bytes`` is used.
        A pure function of the network and the mapping, so it is cached
        until the mapping changes.
        """
        delay = self._comm_delay_cache
        if delay is None:
            delay = self._comm_delay_cache = compute_comm_delay(
                net=self.net,
                num_cores=len(self.core_ids),
                comm_bytes=self.comm_bytes,
                comm_graph=self.comm_graph,
                mapping=self.mapping,
                node_of=self._node_of,
                local_comm_factor=self.local_comm_factor,
            )
        return delay

    def _mapping_changed(self) -> None:
        """Chares were placed or migrated: drop what the mapping decided."""
        self._comm_delay_cache = None

    # ------------------------------------------------------------------
    # load balancing
    # ------------------------------------------------------------------
    def _lb_due(self, completed: int) -> bool:
        """Is an LB step due after ``completed`` iterations? Records the
        step as taken when it is."""
        if self.balancer is None or not self.policy.due(
            completed,
            self._total_iterations,
            imbalance=self._imbalance() if self._reads_imbalance else None,
            since_last_lb=completed - self._last_lb_completed,
        ):
            return False
        self._last_lb_completed = completed
        return True

    def _balance(self, next_iteration: int, now: float) -> float:
        """One LB step at simulated time ``now``; returns the pause before
        iteration ``next_iteration`` resumes (decision overhead plus the
        migration transfer time)."""
        view = self.db.build_view(self.mapping)
        migrations = self.balancer.balance(view)
        cost = apply_migrations(
            migrations,
            chares=self.chares,
            mapping=self.mapping,
            net=self.net,
            node_of=self._node_of,
            local_comm_factor=self.local_comm_factor,
        )
        self.migration_count += len(migrations)
        self.migration_cost_s += cost
        trace = self.trace
        if trace.enabled:
            for m in migrations:
                trace.add_migration(
                    MigrationEvent(
                        now, m.chare, m.src, m.dst, self.chares[m.chare].state_bytes
                    )
                )
        if self.audit is not None or self.lineage is not None:
            bg_cpu = self._true_bg_cpu()
            if self.lineage is not None:
                self.lineage.record_lb_step(
                    time=now,
                    iteration=next_iteration,
                    migrations=[(m.chare, m.src, m.dst) for m in migrations],
                    bg_cpu=bg_cpu,
                )
            if self.audit is not None:
                self.audit.commit_step(
                    time=now,
                    iteration=next_iteration,
                    bg_cpu=bg_cpu,
                    migration_cost_s=cost,
                    decision_overhead_s=self.policy.decision_overhead_s,
                )
        self.db.reset_window()
        if migrations:
            # the window follows the chares to their new cores
            self.db.layout(self.mapping)
            self._mapping_changed()
        self.lb_step_count += 1
        if trace.enabled:
            trace.add_lb_step(
                LBStepEvent(
                    time=now,
                    iteration=next_iteration,
                    num_migrations=len(migrations),
                    migration_cost_s=cost,
                    t_avg=view.t_avg,
                    max_load=max((c.total_load for c in view.cores), default=0.0),
                )
            )
        _log.debug(
            "%s: LB step before iteration %d -> %d migrations, cost %.6fs",
            self.name,
            next_iteration,
            len(migrations),
            cost,
        )
        pause = self.policy.decision_overhead_s + cost
        if self.ledger is not None:
            # `now + pause` is the float the executor resumes at (the
            # engine's schedule_after computes `_now + delay`)
            self.ledger.mark_pause(now, now + pause)
        return pause

    def _true_bg_cpu(self) -> Dict[int, float]:
        """Cumulative CPU-seconds other owners consumed on our cores.

        The ground truth the Eq.-(2) estimate ``O_p`` is audited against:
        the window delta of this quantity is exactly the background load
        injected on each core during the LB window. One snapshot per LB
        step serves the audit trail and the lineage recorder.
        """
        bg: Dict[int, float] = {}
        name = self.name
        for cid, core in self.cores.items():
            core.sync()
            bg[cid] = left_sum(
                cpu for owner, cpu in core.cpu_by_owner.items() if owner != name
            )
        return bg


class Runtime(Job):
    """One parallel job over a set of cores, on the event engine.

    Parameters
    ----------
    engine, cluster:
        Shared simulation substrate.
    core_ids:
        Cores this job runs on (its "allocation").
    name:
        Unique accounting tag (``owner`` of all its processes).
    weight:
        OS share weight of the job's processes (>1 models a job the host
        scheduler favours — the paper's Mol3D background-load observation).
    net:
        Network model for communication and migration costs
        (default: :meth:`NetworkModel.native`).
    balancer, policy:
        Load-balancing strategy and cadence. ``balancer=None`` disables
        balancing entirely (the noLB runs).
    comm_bytes:
        Halo bytes a core exchanges per iteration (application-dependent).
        Ignored when ``comm_graph`` is given.
    comm_graph:
        Optional per-chare communication graph. When present, the
        per-iteration communication delay is derived from the *current
        object mapping* (co-located neighbours free, same-node cheap,
        remote full price — see
        :meth:`~repro.runtime.commgraph.CommGraph.per_core_external_bytes`),
        so migrations change communication cost; and the LB database
        records each task's communication partners for
        communication-aware strategies.
    local_comm_factor:
        Relative cost of intra-node vs. inter-node communication under a
        ``comm_graph`` (shared-memory transport discount), and of
        migrations between cores of one node — the cost asymmetry that
        locality-preferring strategies
        (:class:`~repro.core.hierarchical.HierarchicalLB`) exploit.
    tracing:
        Record Projections-style events (needed for timelines).
    run_kernels:
        Invoke :meth:`Chare.execute` (real NumPy computation) before each
        simulated task — validates numerics at the cost of speed.
    audit:
        Optional :class:`~repro.telemetry.AuditTrail`. The runtime
        attaches it to the balancer (per-step audit records; ``None``, the
        default, detaches any earlier trail) and commits each step with
        simulated time, iteration and the cumulative foreign CPU on each
        core, from which the trail measures the true background load.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        core_ids: Sequence[int],
        *,
        name: str = "app",
        weight: float = 1.0,
        net: Optional[NetworkModel] = None,
        balancer: Optional[LoadBalancer] = None,
        policy: Optional[LBPolicy] = None,
        comm_bytes: float = 0.0,
        comm_graph: Optional["CommGraph"] = None,
        local_comm_factor: float = 0.25,
        tracing: bool = False,
        run_kernels: bool = False,
        audit: Optional[AuditTrail] = None,
    ) -> None:
        super().__init__(
            core_ids,
            cluster.core,
            cluster.cores_per_node,
            name=name,
            weight=weight,
            net=net,
            balancer=balancer,
            policy=policy,
            comm_bytes=comm_bytes,
            comm_graph=comm_graph,
            local_comm_factor=local_comm_factor,
            tracing=tracing,
            audit=audit,
        )
        self.engine = engine
        self.cluster = cluster
        self.run_kernels = bool(run_kernels)
        self.schedulers: Dict[int, CoreScheduler] = {
            cid: CoreScheduler(
                core,
                owner=self.name,
                weight=self.weight,
                work_of=self._work_of,
                on_task_done=self._task_done,
                on_drain=self._core_drained,
            )
            for cid, core in self.cores.items()
        }
        self._arrived = 0
        self._expected_arrivals = 0
        self._on_iteration: List[Callable[["Runtime", int], None]] = []
        # every iteration's walls feed iteration_imbalance
        self._folds_walls = True
        #: measured max/mean per-core wall share of each iteration
        self.iteration_imbalance: List[float] = []

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def on_iteration(self, callback: Callable[["Runtime", int], None]) -> None:
        """Register a per-iteration callback ``(runtime, iteration)``.

        Fires at each iteration's barrier, before communication/LB.
        Used by event-driven experiment scripts (e.g. the Figure 3
        harness flips interference on and off at iteration boundaries).
        """
        self._on_iteration.append(callback)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _schedule_launch(self, at: Optional[float]) -> None:
        self.engine.schedule_at(self.engine.now if at is None else at, self._launch)

    def _launch(self) -> None:
        self._open_window()
        self._begin_iteration(0)

    # ------------------------------------------------------------------
    # iteration machinery
    # ------------------------------------------------------------------
    def _begin_iteration(self, iteration: int) -> None:
        self._open_iteration(iteration, self.engine.now)
        self._arrived = 0
        self._expected_arrivals = len(self.core_ids)
        # each core's chare keys in sorted order: the LB window's layout
        core_window = self.db.core_window
        empty_cores = 0
        for cid in self.core_ids:
            keys = core_window(cid)[0]
            if not keys:
                empty_cores += 1
                continue
            sched = self.schedulers[cid]
            for key in keys:
                sched.enqueue(_new(ComputeMsg, (key, iteration)))
        # cores with no objects arrive at the barrier instantly
        for _ in range(empty_cores):
            self._core_drained()

    def _work_of(self, msg: ComputeMsg) -> float:
        chare = self.chares[msg.chare]
        if self.run_kernels:
            chare.execute(msg.iteration)
        demand = chare.work(msg.iteration)
        if not 0.0 <= demand < _INF:
            raise bad_work_error(chare, msg.iteration, demand)
        return demand

    def _task_done(self, msg: ComputeMsg, proc: SimProcess) -> None:
        chare, iteration = msg
        cpu_time = proc.cpu_time
        now = self.engine.now
        self.total_task_cpu_s += cpu_time
        assert self.db is not None
        self.db.record_task(chare, cpu_time)
        started = proc.started_at if proc.started_at is not None else now
        core_id = self.mapping[chare]
        if self.lineage is not None:
            self.lineage.record_sample(chare, iteration, core_id, cpu_time)
        self._iter_core_wall[core_id] += now - started
        if self.trace.enabled:
            self.trace.add_task(
                TaskEvent(
                    core_id=core_id,
                    chare=chare,
                    iteration=iteration,
                    start=proc.started_at if proc.started_at is not None else 0.0,
                    end=now,
                    cpu_time=cpu_time,
                )
            )

    def _finish(self, now: float) -> None:
        super()._finish(now)
        # each scheduler holds bound methods of this runtime; dropping
        # them once the job is done leaves a finished run free of
        # reference cycles
        self.schedulers.clear()

    def _core_drained(self) -> None:
        self._arrived += 1
        if self._arrived == self._expected_arrivals:
            self._end_iteration()

    def _end_iteration(self) -> None:
        now = self.engine.now
        iteration = self._iteration
        self._record_iteration(now)
        self.iteration_imbalance.append(self._imbalance())
        for cb in self._on_iteration:
            cb(self, iteration)
        completed = iteration + 1
        if completed == self._total_iterations:
            self._finish(now)
            return
        delay = self.comm_delay()
        if self._lb_due(completed):
            self.engine.schedule_after(delay, self._lb_step, completed)
        else:
            self.engine.schedule_after(delay, self._begin_iteration, completed)

    def _lb_step(self, next_iteration: int) -> None:
        pause = self._balance(next_iteration, self.engine.now)
        self.engine.schedule_after(pause, self._begin_iteration, next_iteration)
