"""Unit and integration tests for the Runtime."""

import dataclasses

import pytest

import repro.runtime.runtime as runtime_module
from repro.cluster import Cluster, Interferer, NetworkModel
from repro.core import LBPolicy, NoLB, RefineVMInterferenceLB
from repro.experiments.runner import run_scenario
from repro.experiments.sweep import build_scenario, summarize_result
from repro.runtime import Chare, ChareArray, Runtime
from repro.sim import SimulationEngine


class FixedChare(Chare):
    """Chare with constant per-iteration CPU cost."""

    def __init__(self, index, cost=0.1, state_bytes=1024.0):
        super().__init__(index, state_bytes=state_bytes)
        self.cost = cost

    def work(self, iteration):
        return self.cost


def make_job(num_cores=2, chares_per_core=4, cost=0.1, **kw):
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=max(num_cores, 1))
    rt = Runtime(
        eng,
        cl,
        list(range(num_cores)),
        net=kw.pop("net", NetworkModel.zero()),
        **kw,
    )
    arr = ChareArray(
        "grid", [FixedChare(i, cost) for i in range(num_cores * chares_per_core)]
    )
    rt.register_array(arr)
    return eng, cl, rt


def test_isolated_run_iteration_time_is_per_core_work():
    eng, cl, rt = make_job(num_cores=2, chares_per_core=4, cost=0.1)
    rt.start(iterations=5)
    eng.run()
    assert rt.done
    # each core runs 4 x 0.1s per iteration, zero comm cost
    assert rt.finished_at == pytest.approx(5 * 0.4)
    assert all(t == pytest.approx(0.4) for t in rt.stats.iteration_times)


def test_stats_before_finish_raises():
    eng, cl, rt = make_job()
    rt.start(iterations=2)
    with pytest.raises(RuntimeError):
        _ = rt.stats


def test_barrier_waits_for_slowest_core():
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=2)
    rt = Runtime(eng, cl, [0, 1], net=NetworkModel.zero())
    slow = [FixedChare(0, cost=1.0)]
    fast = [FixedChare(1, cost=0.1)]
    arr = ChareArray("g", slow + fast)
    rt.register_array(arr, mapping={("g", 0): 0, ("g", 1): 1})
    rt.start(iterations=3)
    eng.run()
    assert rt.finished_at == pytest.approx(3.0)  # bound by the slow core


def test_comm_delay_separates_iterations():
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=2)
    net = NetworkModel(latency_s=0.01, bandwidth_Bps=1e9, per_message_overhead_s=0.0)
    rt = Runtime(eng, cl, [0, 1], net=net, comm_bytes=0.0)
    arr = ChareArray("g", [FixedChare(i, cost=0.1) for i in range(2)])
    rt.register_array(arr)
    rt.start(iterations=2)
    eng.run()
    # two iterations of 0.1 + one reduction-tree gap (log2(2)=1 hop)
    assert rt.finished_at == pytest.approx(0.1 + 0.01 + 0.1)


def test_delayed_start():
    eng, cl, rt = make_job(num_cores=1, chares_per_core=1, cost=1.0)
    rt.start(iterations=1, at=5.0)
    eng.run()
    assert rt.finished_at == pytest.approx(6.0)


def test_interference_doubles_iteration_time_without_lb():
    eng, cl, rt = make_job(num_cores=2, chares_per_core=4, cost=0.1)
    Interferer(eng, cl.core(1), start=0.0)
    rt.start(iterations=5)
    eng.run(until=100.0)
    # core 1 runs at 50%: its 0.4s of work takes 0.8s per iteration
    assert rt.finished_at == pytest.approx(5 * 0.8)


def test_lb_migrates_away_from_interfered_core():
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=4)
    rt = Runtime(
        eng,
        cl,
        [0, 1, 2, 3],
        net=NetworkModel.zero(),
        balancer=RefineVMInterferenceLB(0.05),
        policy=LBPolicy(period_iterations=3, decision_overhead_s=0.0),
        tracing=True,
    )
    arr = ChareArray("g", [FixedChare(i, cost=0.1) for i in range(32)])
    rt.register_array(arr)
    Interferer(eng, cl.core(0), start=0.0)
    rt.start(iterations=12)
    eng.run(until=1000.0)
    assert rt.done
    assert rt.migration_count > 0
    # after balancing, core 0 should host noticeably fewer objects
    core0_objs = sum(1 for cid in rt.mapping.values() if cid == 0)
    assert core0_objs < 8
    # and late iterations should be faster than early (interfered) ones
    early = rt.stats.iteration_times[0]
    late = rt.stats.iteration_times[-1]
    assert late < early * 0.75


def test_nolb_keeps_static_mapping():
    eng, cl, rt = make_job(
        num_cores=2,
        chares_per_core=4,
        balancer=NoLB(),
        policy=LBPolicy(period_iterations=2, decision_overhead_s=0.0),
    )
    before = dict(rt.mapping)
    rt.start(iterations=6)
    eng.run()
    assert rt.mapping == before
    assert rt.migration_count == 0
    assert rt.lb_step_count == 2  # steps ran, decided nothing


def test_lb_policy_cadence_respected():
    eng, cl, rt = make_job(
        num_cores=2,
        balancer=NoLB(),
        policy=LBPolicy(period_iterations=4, decision_overhead_s=0.0),
    )
    rt.start(iterations=12)
    eng.run()
    assert rt.lb_step_count == 2  # after iterations 4 and 8 (not 12)


def test_migration_cost_is_charged():
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=2)
    net = NetworkModel(latency_s=0.05, bandwidth_Bps=1e9, per_message_overhead_s=0.0)
    rt = Runtime(
        eng,
        cl,
        [0, 1],
        net=net,
        balancer=RefineVMInterferenceLB(0.05),
        policy=LBPolicy(period_iterations=1, decision_overhead_s=0.0),
    )
    # all chares start on core 0 -> first LB step must migrate
    arr = ChareArray("g", [FixedChare(i, cost=0.1, state_bytes=1000.0) for i in range(8)])
    rt.register_array(arr, mapping={("g", i): 0 for i in range(8)})
    rt.start(iterations=4)
    eng.run()
    assert rt.migration_count >= 4
    assert rt.migration_cost_s > 0.0


def test_tracing_records_tasks_and_iterations():
    eng, cl, rt = make_job(num_cores=2, chares_per_core=2, tracing=True)
    rt.start(iterations=3)
    eng.run()
    assert len(rt.trace.tasks) == 3 * 4
    assert len(rt.trace.iterations) == 3
    it0 = rt.trace.iteration_span(0)
    assert it0 is not None and it0.end > it0.start


def test_tracing_disabled_by_default():
    eng, cl, rt = make_job()
    rt.start(iterations=2)
    eng.run()
    assert rt.trace.tasks == []


def test_two_jobs_coexist_and_interfere():
    """The Figure-2 setup in miniature: an app + a 2-core bg job."""
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=4)
    app = Runtime(eng, cl, [0, 1, 2, 3], name="app", net=NetworkModel.zero())
    app.register_array(ChareArray("g", [FixedChare(i, 0.1) for i in range(16)]))
    bg = Runtime(eng, cl, [2, 3], name="bg", net=NetworkModel.zero())
    bg.register_array(ChareArray("h", [FixedChare(i, 0.1) for i in range(2)]))
    app.start(iterations=10)
    bg.start(iterations=10)
    eng.run()
    assert app.done and bg.done
    # cores 2,3 are shared: the app is slower than its isolated 0.4s/iter
    assert app.finished_at > 10 * 0.4
    # and the bg job is slower than its isolated 0.1s/iter
    assert bg.finished_at > 10 * 0.1


def test_validation_errors():
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=2)
    with pytest.raises(ValueError):
        Runtime(eng, cl, [])
    with pytest.raises(ValueError):
        Runtime(eng, cl, [0, 0])
    rt = Runtime(eng, cl, [0])
    with pytest.raises(ValueError):
        rt.start(iterations=1)  # no arrays
    arr = ChareArray("g", [FixedChare(0)])
    with pytest.raises(ValueError):
        rt.register_array(arr, mapping={("g", 0): 9})  # outside job
    rt.register_array(arr)
    with pytest.raises(ValueError):
        rt.register_array(arr)  # duplicate name
    rt.start(iterations=1)
    with pytest.raises(RuntimeError):
        rt.start(iterations=1)  # double start


def test_tasks_run_where_the_mapping_says_after_each_migration():
    # The runtime keeps each core's sorted chare keys between LB steps; a
    # migration must invalidate them, or a moved chare's next task would
    # still run on its old core while its trace event named the new one.
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=4)
    rt = Runtime(
        eng,
        cl,
        [0, 1, 2, 3],
        net=NetworkModel.zero(),
        balancer=RefineVMInterferenceLB(0.05),
        policy=LBPolicy(period_iterations=2, decision_overhead_s=0.0),
        tracing=True,
    )
    rt.register_array(ChareArray("g", [FixedChare(i, cost=0.1) for i in range(32)]))
    Interferer(eng, cl.core(0), start=0.0, end=2.0)
    Interferer(eng, cl.core(2), start=2.0)
    mapping_during = {}  # iteration -> the mapping it ran under
    rt.on_iteration(lambda r, it: mapping_during.setdefault(it, dict(r.mapping)))
    rt.start(iterations=16)
    eng.run(until=1000.0)
    assert rt.done
    migrating_steps = [s for s in rt.trace.lb_steps if s.num_migrations]
    assert len(migrating_steps) >= 2
    chains = {}
    for ev in rt.trace.tasks:
        assert ev.core_id == mapping_during[ev.iteration][ev.chare]
        chains.setdefault((ev.iteration, ev.core_id), []).append(ev)
    for (it, cid), evs in chains.items():
        # one core runs its chares back to back, in key order, from the
        # iteration's start: the task really ran on ``core_id``
        evs.sort(key=lambda e: e.start)
        mapping = mapping_during[it]
        assert [e.chare for e in evs] == sorted(k for k, c in mapping.items() if c == cid)
        assert evs[0].start == rt.trace.iteration_span(it).start
        assert all(b.start == a.end for a, b in zip(evs, evs[1:]))


def test_untraced_engine_run_builds_no_trace_records(monkeypatch):
    params = {
        "app": "jacobi2d", "scale": 0.05, "iterations": 10, "bg": True,
        "cores": 8, "balancer": "refine-vm", "lb_period": 3,
    }
    traced = run_scenario(
        dataclasses.replace(build_scenario(params), tracing=True), backend="events"
    )
    assert traced.trace.lb_steps and traced.trace.migrations

    built = []

    def refuse(*args, **kwargs):
        built.append(args or kwargs)
        raise AssertionError("trace record built with tracing off")

    for name in ("TaskEvent", "IterationEvent", "LBStepEvent", "MigrationEvent"):
        monkeypatch.setattr(runtime_module, name, refuse)
    untraced = run_scenario(build_scenario(params), backend="events")
    assert built == []
    assert summarize_result(untraced) == summarize_result(traced)
