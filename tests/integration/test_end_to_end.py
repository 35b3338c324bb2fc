"""End-to-end integration tests across all subsystems.

These exercise whole scenarios (runtime + cluster + balancer + power +
tracing together) and check cross-cutting invariants rather than module
behaviour:

* instrumentation honesty — the Eq. (2) background load the balancer
  sees equals the interferer's ground-truth CPU consumption;
* conservation — task CPU equals the work model's total, energy equals
  the exact counter integral;
* determinism — identical scenarios give bit-identical results;
* consistency — traces, mappings and statistics agree with each other.
"""

import pytest

from repro.apps import Jacobi2D, SyntheticApp, Wave2D
from repro.cluster import Cluster, Interferer, NetworkModel
from repro.core import LBPolicy, RefineVMInterferenceLB
from repro.experiments import BackgroundSpec, Scenario, run_scenario
from repro.power import PowerMeter, PowerModel
from repro.sim import SimulationEngine


def test_instrumented_bg_load_matches_ground_truth():
    """What Eq. (2) reports must equal what the interferer really used."""
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=2)
    app = SyntheticApp([0.05] * 8)
    rt = app.instantiate(eng, cl, [0, 1], net=NetworkModel.zero())
    hog = Interferer(eng, cl.core(1), start=0.0)
    rt.start(iterations=4)
    eng.run(until=rt.finished_at or 100.0)
    # run to app completion only
    while not rt.done:
        eng.step()
    view = rt.db.build_view(rt.mapping)
    truth = hog.cpu_consumed
    assert view.core(1).bg_load == pytest.approx(truth, rel=1e-6)
    assert view.core(0).bg_load == pytest.approx(0.0, abs=1e-9)


def test_total_task_cpu_matches_work_model():
    app = SyntheticApp([0.01 * (i + 1) for i in range(8)])
    res = run_scenario(
        Scenario(app=app, num_cores=4, iterations=5, net=NetworkModel.zero())
    )
    expected = 5 * sum(0.01 * (i + 1) for i in range(8))
    assert res.app.total_task_cpu_s == pytest.approx(expected)


def test_energy_equals_exact_counter_integral():
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=2, cores_per_node=4)
    app = Jacobi2D(grid_size=512, jitter_amp=0.0)
    rt = app.instantiate(eng, cl, list(range(8)), net=NetworkModel.zero())
    bg = Wave2D.background(grid_size=128).instantiate(
        eng, cl, [0, 1], name="bg"
    )
    rt.start(iterations=10)
    bg.start(iterations=50)
    eng.run()
    meter = PowerMeter(cl, PowerModel())
    reading = meter.reading()
    cl.sync_all()
    busy = sum(c.busy_time for c in cl.cores)
    expected = 2 * 40.0 * eng.now + 32.5 * busy
    assert reading.energy_j == pytest.approx(expected, rel=1e-9)


def test_end_to_end_determinism():
    def run_once():
        app = Jacobi2D(grid_size=1024)
        res = run_scenario(
            Scenario(
                app=app,
                num_cores=8,
                iterations=30,
                balancer=RefineVMInterferenceLB(0.05),
                policy=LBPolicy(period_iterations=5),
                bg=BackgroundSpec(
                    model=Wave2D.background(grid_size=512),
                    core_ids=(0, 1),
                    iterations=100,
                ),
                tracing=True,
            )
        )
        return (
            res.app_time,
            res.bg_time,
            res.energy.energy_j,
            res.app.total_migrations,
            tuple(sorted(res.final_mapping.items())),
        )

    assert run_once() == run_once()


def test_trace_agrees_with_statistics():
    app = SyntheticApp([0.02] * 12, state_bytes=128.0)
    res = run_scenario(
        Scenario(
            app=app,
            num_cores=4,
            iterations=8,
            net=NetworkModel.zero(),
            balancer=RefineVMInterferenceLB(0.05),
            policy=LBPolicy(period_iterations=3, decision_overhead_s=0.0),
            bg=BackgroundSpec(
                model=SyntheticApp([0.02, 0.02]), core_ids=(0, 1), iterations=60
            ),
            tracing=True,
        )
    )
    assert len(res.trace.iterations) == 8
    assert len(res.trace.tasks) == 8 * 12
    assert res.trace.total_migrations() == res.app.total_migrations
    assert len(res.trace.lb_steps) == res.app.lb_steps
    # every chare maps to a core inside the job
    assert set(res.final_mapping.values()) <= set(range(4))
    # per-iteration trace spans tile the run without overlap
    spans = sorted(
        (e.start, e.end) for e in res.trace.iterations
    )
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2 + 1e-12


def test_app_and_bg_both_complete_with_lb_churn():
    """A long mixed run: LB on, bg weight 4, migrations mid-flight."""
    res = run_scenario(
        Scenario(
            app=Jacobi2D(grid_size=1024),
            num_cores=8,
            iterations=50,
            balancer=RefineVMInterferenceLB(0.05),
            policy=LBPolicy(period_iterations=5),
            bg=BackgroundSpec(
                model=Wave2D.background(grid_size=512),
                core_ids=(0, 1),
                iterations=300,
                weight=4.0,
            ),
        )
    )
    assert res.app.iterations == 50
    assert res.bg is not None and res.bg.iterations == 300
    assert res.app.total_migrations > 0
    assert res.app_time > 0 and res.bg_time > 0


def test_chare_lifetime_statistics_are_consistent():
    app = SyntheticApp([0.01] * 8, state_bytes=64.0)
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=4)
    rt = app.instantiate(
        eng,
        cl,
        [0, 1, 2, 3],
        net=NetworkModel.zero(),
        balancer=RefineVMInterferenceLB(0.05),
        policy=LBPolicy(period_iterations=2, decision_overhead_s=0.0),
        tracing=True,
    )
    Interferer(eng, cl.core(0), start=0.0, end=0.5)
    rt.start(iterations=10)
    eng.run(until=1e5)
    assert rt.done
    for chare in rt.chares.values():
        tasks = [ev for ev in rt.trace.tasks if ev.chare == chare.key]
        assert len(tasks) == 10
        assert sum(ev.cpu_time for ev in tasks) == pytest.approx(0.1)
        assert chare.current_core == rt.mapping[chare.key]
    assert len(rt.trace.migrations) == rt.migration_count
