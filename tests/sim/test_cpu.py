"""Unit tests for the proportional-share core model."""

import math

import numpy as np
import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.sweep import build_scenario
from repro.sim import ProcessState, SharedCore, SimProcess, SimulationEngine
from repro.util import check_non_negative, check_positive


def make_core(record=False):
    eng = SimulationEngine()
    return eng, SharedCore(eng, 0, record_intervals=record)


def test_single_process_runs_at_full_rate():
    eng, core = make_core()
    done = []
    p = SimProcess("p", 4.0, on_complete=done.append)
    core.dispatch(p)
    eng.run()
    assert done == [p]
    assert p.completed_at == pytest.approx(4.0)
    assert p.cpu_time == pytest.approx(4.0)
    assert p.state is ProcessState.DONE


def test_two_equal_processes_share_half_half():
    eng, core = make_core()
    p1 = SimProcess("p1", 2.0)
    p2 = SimProcess("p2", 2.0)
    core.dispatch(p1)
    core.dispatch(p2)
    eng.run()
    # both need 2 CPU-s at 50% rate -> both finish at t=4
    assert p1.completed_at == pytest.approx(4.0)
    assert p2.completed_at == pytest.approx(4.0)


def test_weighted_sharing():
    eng, core = make_core()
    heavy = SimProcess("heavy", 3.0, weight=3.0)
    light = SimProcess("light", 1.0, weight=1.0)
    core.dispatch(heavy)
    core.dispatch(light)
    eng.run()
    # heavy runs at 75%, light at 25% -> both finish at t=4
    assert heavy.completed_at == pytest.approx(4.0)
    assert light.completed_at == pytest.approx(4.0)


def test_rate_speeds_up_after_companion_finishes():
    eng, core = make_core()
    short = SimProcess("short", 1.0)
    long = SimProcess("long", 3.0)
    core.dispatch(short)
    core.dispatch(long)
    eng.run()
    # share 50/50 until t=2 (short consumed 1, long consumed 1);
    # long then runs alone and finishes its remaining 2 at t=4.
    assert short.completed_at == pytest.approx(2.0)
    assert long.completed_at == pytest.approx(4.0)


def test_late_arrival_slows_running_process():
    eng, core = make_core()
    first = SimProcess("first", 4.0)
    second = SimProcess("second", 1.0)
    core.dispatch(first)
    eng.schedule_after(2.0, core.dispatch, second)
    eng.run()
    # first: 2 CPU-s alone by t=2; then 50% share. second finishes
    # at t=4 (1 CPU-s at 50%), first's remaining 2 take 1s shared (gets 1)
    # plus 1s alone -> completes at t=5.
    assert second.completed_at == pytest.approx(4.0)
    assert first.completed_at == pytest.approx(5.0)


def test_busy_idle_accounting():
    eng, core = make_core()
    p = SimProcess("p", 2.0)
    eng.schedule_after(1.0, core.dispatch, p)
    eng.run()
    core.sync()
    assert core.busy_time == pytest.approx(2.0)
    assert core.idle_time == pytest.approx(1.0)


def test_owner_attribution():
    eng, core = make_core()
    a = SimProcess("a", 2.0, owner="app")
    b = SimProcess("b", 2.0, owner="bg")
    core.dispatch(a)
    core.dispatch(b)
    eng.run()
    assert core.owner_cpu("app") == pytest.approx(2.0)
    assert core.owner_cpu("bg") == pytest.approx(2.0)
    assert core.owner_cpu("nobody") == 0.0


def test_preempt_preserves_progress():
    eng, core = make_core()
    p = SimProcess("p", 4.0)
    core.dispatch(p)
    eng.schedule_after(1.0, core.preempt, p)
    eng.run()
    assert p.state is ProcessState.BLOCKED
    assert p.cpu_time == pytest.approx(1.0)
    assert p.remaining == pytest.approx(3.0)
    # resume: finishes after 3 more seconds
    core.dispatch(p)
    eng.run()
    assert p.state is ProcessState.DONE
    assert p.completed_at == pytest.approx(4.0)


def test_preempt_not_runnable_raises():
    eng, core = make_core()
    p = SimProcess("p", 1.0)
    with pytest.raises(RuntimeError):
        core.preempt(p)


def test_double_dispatch_raises():
    eng, core = make_core()
    p = SimProcess("p", 1.0)
    core.dispatch(p)
    with pytest.raises(RuntimeError):
        core.dispatch(p)


def test_dispatch_done_process_raises():
    eng, core = make_core()
    p = SimProcess("p", 1.0)
    core.dispatch(p)
    eng.run()
    with pytest.raises(RuntimeError):
        core.dispatch(p)


def test_zero_demand_completes_immediately():
    eng, core = make_core()
    done = []
    p = SimProcess("p", 0.0, on_complete=done.append)
    core.dispatch(p)
    eng.run()
    assert done == [p]
    assert p.completed_at == 0.0


def test_add_demand_extends_completion():
    eng, core = make_core()
    p = SimProcess("p", 1.0)
    core.dispatch(p)
    eng.schedule_after(0.5, core.add_demand, p, 1.0)
    eng.run()
    assert p.completed_at == pytest.approx(2.0)


def test_negative_demand_rejected():
    with pytest.raises(ValueError):
        SimProcess("p", -1.0)


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        SimProcess("p", 1.0, weight=0.0)


def _checker_error(check, name, value):
    with pytest.raises((TypeError, ValueError)) as err:
        check(name, value)
    return err.type, str(err.value)


@pytest.mark.parametrize(
    "demand", [math.nan, math.inf, -math.inf, -1.0, -2, True, False]
)
def test_bad_demand_raises_the_checker_error(demand):
    # the inline fast check must fall back to the full checker
    kind, message = _checker_error(check_non_negative, "demand", demand)
    with pytest.raises(kind) as err:
        SimProcess("p", demand)
    assert str(err.value) == message


@pytest.mark.parametrize("weight", [0.0, 0, -1.0, math.nan, math.inf, True])
def test_bad_weight_raises_the_checker_error(weight):
    kind, message = _checker_error(check_positive, "weight", weight)
    with pytest.raises(kind) as err:
        SimProcess("p", 1.0, weight=weight)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "demand, weight", [(3, 2), (np.float64(1.5), np.float64(2.0)), (0, 1.0)]
)
def test_int_and_numpy_inputs_are_accepted_as_floats(demand, weight):
    p = SimProcess("p", demand, weight=weight)
    assert type(p.remaining) is float and p.remaining == demand
    assert type(p.weight) is float and p.weight == weight


def test_interval_recording():
    eng, core = make_core(record=True)
    p1 = SimProcess("p1", 1.0)
    p2 = SimProcess("p2", 1.0)
    core.dispatch(p1)
    eng.schedule_after(0.5, core.dispatch, p2)
    eng.run()
    core.finalize_intervals()
    # [0, 0.5): 1 runnable; [0.5, 2.25): 2 runnable until p1 done ...
    assert core.busy_intervals[0] == (0.0, 0.5, 1)
    total = sum(e - s for s, e, _ in core.busy_intervals)
    core.sync()
    assert total == pytest.approx(core.busy_time)


def test_completion_callback_ordering_is_deterministic():
    # two identical runs produce identical completion orders
    def run_once():
        eng = SimulationEngine()
        core = SharedCore(eng, 0)
        order = []
        for i in range(5):
            core.dispatch(
                SimProcess(f"p{i}", 1.0 + 0.1 * i, on_complete=lambda p: order.append(p.name))
            )
        eng.run()
        return order

    assert run_once() == run_once()


def test_completion_cancels_only_live_projections(monkeypatch):
    """The projection that fires leaves the pending set before the
    rescheduling it triggers, so on a contended run (application and
    background job sharing cores, balancer migrating) every cancel
    reaches a live handle."""
    fired = []
    cancel = SimulationEngine.cancel

    def spy(engine, handle):
        fired.append(handle.fired)
        cancel(engine, handle)

    monkeypatch.setattr(SimulationEngine, "cancel", spy)
    params = {"app": "jacobi2d", "scale": 0.05, "iterations": 8, "cores": 4,
              "bg": True, "balancer": "refine-vm"}
    res = run_scenario(build_scenario(params), backend="events")
    assert res.app.total_migrations > 0
    assert fired and not any(fired)
