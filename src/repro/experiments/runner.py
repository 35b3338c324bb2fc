"""Scenario execution.

:func:`run_scenario` builds a fresh engine + cluster, instantiates the
application (and background job, if any), runs the simulation to
completion of *both* jobs, and collects:

* both jobs' :class:`~repro.runtime.runtime.RunStats`;
* the energy/power window **up to the application's completion**, metered
  on the nodes the application occupies — matching the paper's
  methodology (per-node watt meters, run-scoped integration);
* the application's trace and final object mapping for timeline analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.experiments.scenario import Scenario
from repro.power.meter import EnergyReading, read_nodes
from repro.power.model import PowerModel
from repro.runtime.runtime import Job, RunStats, Runtime
from repro.runtime.tracing import TraceLog
from repro.sim.engine import SimulationEngine
from repro.telemetry import AuditTrail

__all__ = ["BACKENDS", "ExperimentResult", "run_jobs", "run_scenario"]

ChareKey = Tuple[str, int]

#: Every accepted ``backend`` value (see :func:`run_scenario`).
BACKENDS = ("events", "fast")


@dataclass(frozen=True)
class ExperimentResult:
    """Everything measured from one scenario run.

    Attributes
    ----------
    scenario:
        The executed description.
    app:
        Application run statistics (``finished_at`` is its wall time —
        both jobs launch at t = 0 unless the background start says
        otherwise).
    bg:
        Background job statistics, or None when the scenario had none.
    energy:
        Energy window ``[0, app.finished_at]`` on the application's nodes.
    trace:
        The application's trace log (empty unless ``tracing=True``).
    final_mapping:
        chare -> core mapping at application completion.
    """

    scenario: Scenario
    app: RunStats
    bg: Optional[RunStats]
    energy: EnergyReading
    trace: TraceLog
    final_mapping: Dict[ChareKey, int]

    @property
    def app_time(self) -> float:
        """Application wall-clock (seconds)."""
        return self.app.finished_at

    @property
    def bg_time(self) -> Optional[float]:
        """Background job wall-clock, measured from its own launch."""
        if self.bg is None:
            return None
        return self.bg.finished_at - (
            self.scenario.bg.start if self.scenario.bg else 0.0
        )

    @property
    def avg_power_w(self) -> float:
        """Mean power over the application's run."""
        return self.energy.average_power_w


def run_scenario(
    scenario: Scenario,
    *,
    audit: Optional[AuditTrail] = None,
    backend: str = "fast",
    ledger=None,
    lineage=None,
) -> ExperimentResult:
    """Execute ``scenario`` on a fresh simulated cluster.

    ``audit`` (optional, an :class:`~repro.telemetry.AuditTrail`) is
    attached to the *application* runtime: it collects one record per LB
    step without affecting the simulation (results are bit-identical
    with or without it). Without one, the scenario's balancer is
    detached from any trail an earlier run attached.

    ``ledger`` (optional, a :class:`~repro.obs.ledger.TimeLedger`) is
    attached over the application's cores on either backend and closed —
    with its conservation check — at application finish. Like the
    audit, it never affects the simulation.

    ``lineage`` (optional, a
    :class:`~repro.obs.lineage.LineageRecorder`) observes the
    application's per-chare load samples and LB migrations on either
    backend and is closed at application finish. Like the audit, it
    never affects the simulation.

    ``backend`` selects the simulation backend:

    * ``"events"`` — the discrete-event engine, the reference;
    * ``"fast"`` (default) — the analytic fast path
      (:mod:`repro.sim.fastpath`), for every scenario.

    Both backends are bit-identical on every result field, the trace of
    a ``tracing=True`` scenario included; the parity suite
    (``tests/experiments/test_backend_parity.py``) enforces this.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "fast":
        from repro.sim.fastpath import run_scenario_fast

        return run_scenario_fast(
            scenario, audit=audit, ledger=ledger, lineage=lineage
        )
    engine = SimulationEngine()
    cluster = Cluster(
        engine,
        num_nodes=scenario.num_nodes,
        cores_per_node=scenario.cores_per_node,
    )
    app_rt = scenario.app.instantiate(
        engine,
        cluster,
        list(scenario.app_core_ids),
        name="app",
        net=scenario.net,
        balancer=scenario.balancer,
        policy=scenario.policy,
        tracing=scenario.tracing,
        use_comm_graph=scenario.use_comm_graph,
        audit=audit,
    )

    bg_rt: Optional[Runtime] = None
    if scenario.bg is not None:
        bg_rt = scenario.bg.model.instantiate(
            engine,
            cluster,
            list(scenario.bg.core_ids),
            name="bg",
            weight=scenario.bg.weight,
            net=scenario.net,
        )
    return run_jobs(
        scenario,
        engine,
        app_rt,
        bg_rt,
        cluster.nodes_for(scenario.app_core_ids),
        ledger=ledger,
        lineage=lineage,
    )


def run_jobs(
    scenario: Scenario,
    clock,
    app: Job,
    bg: Optional[Job],
    nodes: Sequence[Node],
    *,
    ledger=None,
    lineage=None,
) -> ExperimentResult:
    """Run a scenario's application job ``app`` and background job ``bg``.

    Both backends run their jobs here: ``clock`` is the executor's event
    loop (``now`` and ``run()``: a
    :class:`~repro.sim.engine.SimulationEngine`, or the fast path's),
    ``nodes`` the application's nodes, holding the executor's cores.
    Meters ``nodes`` when the application finishes, attaches ``ledger``
    and ``lineage`` to the application (see :func:`run_scenario`), starts
    both jobs, runs them and checks that both finished.
    """
    power_model = PowerModel(cores_per_node=scenario.cores_per_node)
    reading_at_app_end: list = []
    app.on_finish(
        lambda job: reading_at_app_end.append(
            read_nodes(nodes, power_model, clock.now)
        )
    )

    if ledger is not None:
        app.ledger = ledger
        for core in app.cores.values():
            core.ledger = ledger

        def close_ledger(job: Job) -> None:
            # bring every app core's accounting (and with it the ledger
            # cursor) to the finish time, then seal + conservation-check
            for core in job.cores.values():
                core.sync()
            ledger.close(clock.now)

        app.on_finish(close_ledger)

    if lineage is not None:
        app.lineage = lineage
        lineage.record_placement(app.mapping)
        app.on_finish(
            lambda job: lineage.close(clock.now, bg_cpu=job._true_bg_cpu())
        )

    app.start(scenario.iterations)
    if bg is not None:
        bg.start(scenario.bg.iterations, at=scenario.bg.start)

    clock.run()
    if not app.done or (bg is not None and not bg.done):
        raise RuntimeError(
            "simulation drained before both jobs finished — "
            "a scheduling deadlock would be a library bug"
        )

    return ExperimentResult(
        scenario=scenario,
        app=app.stats,
        bg=bg.stats if bg is not None else None,
        energy=reading_at_app_end[0],
        trace=app.trace,
        final_mapping=dict(app.mapping),
    )
