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
from typing import Dict, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.experiments.scenario import Scenario
from repro.power.meter import EnergyReading, PowerMeter
from repro.power.model import PowerModel
from repro.runtime.runtime import RunStats, Runtime
from repro.runtime.tracing import TraceLog
from repro.sim.engine import SimulationEngine
from repro.telemetry import AuditTrail

__all__ = ["BACKENDS", "ExperimentResult", "run_scenario"]

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

    app_nodes = cluster.nodes_for(scenario.app_core_ids)
    meter = PowerMeter(
        cluster,
        model=PowerModel(cores_per_node=scenario.cores_per_node),
        nodes=app_nodes,
    )
    reading_at_app_end: list = []
    app_rt.on_finish(lambda rt: reading_at_app_end.append(meter.reading()))

    if ledger is not None:
        app_rt.ledger = ledger
        for cid in scenario.app_core_ids:
            cluster.core(cid).ledger = ledger

        def close_ledger(rt: Runtime) -> None:
            # bring every app core's accounting (and with it the ledger
            # cursor) to the finish time, then seal + conservation-check
            for cid in scenario.app_core_ids:
                cluster.core(cid).sync()
            ledger.close(engine.now)

        app_rt.on_finish(close_ledger)

    if lineage is not None:
        app_rt.lineage = lineage
        lineage.record_placement(app_rt.mapping)

        def close_lineage(rt: Runtime) -> None:
            lineage.close(engine.now, bg_cpu=rt._true_bg_cpu())

        app_rt.on_finish(close_lineage)

    app_rt.start(scenario.iterations)
    if bg_rt is not None:
        bg_rt.start(scenario.bg.iterations, at=scenario.bg.start)

    engine.run()
    if not app_rt.done or (bg_rt is not None and not bg_rt.done):
        raise RuntimeError(
            "simulation drained before both jobs finished — "
            "a scheduling deadlock would be a library bug"
        )

    return ExperimentResult(
        scenario=scenario,
        app=app_rt.stats,
        bg=bg_rt.stats if bg_rt is not None else None,
        energy=reading_at_app_end[0],
        trace=app_rt.trace,
        final_mapping=dict(app_rt.mapping),
    )
