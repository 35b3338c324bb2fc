"""Unit tests for scenarios, the runner, penalties and tables."""

import gc

import pytest

from repro.apps import SyntheticApp, Wave2D
from repro.cluster import NetworkModel
from repro.core import NoLB, RefineVMInterferenceLB
from repro.experiments import (
    BackgroundSpec,
    ExperimentResult,
    Scenario,
    format_table,
    percent_increase,
    run_scenario,
)


def test_percent_increase():
    assert percent_increase(2.0, 1.0) == pytest.approx(100.0)
    assert percent_increase(1.0, 1.0) == 0.0
    assert percent_increase(0.5, 1.0) == -50.0
    with pytest.raises(ValueError):
        percent_increase(1.0, 0.0)


def test_scenario_validation_and_shape():
    app = SyntheticApp([0.01] * 8)
    sc = Scenario(app=app, num_cores=6, iterations=3)
    assert sc.app_core_ids == (0, 1, 2, 3, 4, 5)
    assert sc.num_nodes == 2  # 6 cores over 4-core nodes
    with pytest.raises(ValueError):
        Scenario(app=app, num_cores=0, iterations=1)
    with pytest.raises(ValueError):
        Scenario(app=app, num_cores=1, iterations=0)


def test_background_spec_validation():
    bg = Wave2D.background(grid_size=64)
    with pytest.raises(ValueError):
        BackgroundSpec(model=bg, core_ids=(), iterations=5)
    with pytest.raises(ValueError):
        BackgroundSpec(model=bg, core_ids=(0,), iterations=0)
    with pytest.raises(ValueError):
        BackgroundSpec(model=bg, core_ids=(0,), iterations=1, weight=0.0)
    with pytest.raises(ValueError):
        BackgroundSpec(model=bg, core_ids=(0,), iterations=1, start=-1.0)
    # refused before either backend runs, so both give the same error
    with pytest.raises(ValueError, match="duplicates"):
        BackgroundSpec(model=bg, core_ids=(0, 0), iterations=1)
    with pytest.raises(ValueError, match=">= 0"):
        BackgroundSpec(model=bg, core_ids=(-1, 0), iterations=1)


def test_nodes_cover_background_cores():
    app = SyntheticApp([0.01] * 8)
    bg = BackgroundSpec(
        model=SyntheticApp([0.01]), core_ids=(7,), iterations=2
    )
    sc = Scenario(app=app, num_cores=2, iterations=2, bg=bg)
    assert sc.num_nodes == 2  # bg on core 7 forces a second node


def test_run_scenario_without_background():
    app = SyntheticApp([0.05] * 8, comm_bytes_per_core=0.0)
    sc = Scenario(
        app=app, num_cores=4, iterations=5, net=NetworkModel.zero()
    )
    res = run_scenario(sc)
    assert isinstance(res, ExperimentResult)
    assert res.bg is None and res.bg_time is None
    # 8 tasks x 0.05 over 4 cores = 0.1 s per iteration
    assert res.app_time == pytest.approx(0.5)
    assert res.energy.time == pytest.approx(0.5)
    assert res.avg_power_w > 40.0


def test_run_scenario_with_background_measures_both():
    app = SyntheticApp([0.05] * 8)
    bg = BackgroundSpec(
        model=SyntheticApp([0.05, 0.05]), core_ids=(0, 1), iterations=10
    )
    sc = Scenario(
        app=app, num_cores=4, iterations=5, bg=bg, net=NetworkModel.zero()
    )
    res = run_scenario(sc)
    assert res.bg is not None
    assert res.app_time > 0.5  # slower than isolated
    assert res.bg_time > 0.0


def test_energy_window_ends_at_app_completion():
    app = SyntheticApp([0.05] * 4)
    # bg runs far longer than the app
    bg = BackgroundSpec(
        model=SyntheticApp([0.05]), core_ids=(0,), iterations=100
    )
    sc = Scenario(
        app=app, num_cores=4, iterations=2, bg=bg, net=NetworkModel.zero()
    )
    res = run_scenario(sc)
    assert res.energy.time == pytest.approx(res.app_time)


def test_lb_scenario_beats_nolb_under_interference():
    app = SyntheticApp([0.02] * 32, state_bytes=256.0)
    bg = BackgroundSpec(
        model=SyntheticApp([0.02, 0.02]), core_ids=(0, 1), iterations=400
    )
    common = dict(app=app, num_cores=8, iterations=30, bg=bg, net=NetworkModel.zero())
    t_nolb = run_scenario(Scenario(**common)).app_time
    t_lb = run_scenario(
        Scenario(**common, balancer=RefineVMInterferenceLB(0.05))
    ).app_time
    assert t_lb < t_nolb * 0.8


def test_deadlock_detection_is_not_triggered_by_clean_runs():
    # sanity: normal scenarios always drain
    app = SyntheticApp([0.01])
    res = run_scenario(
        Scenario(app=app, num_cores=1, iterations=1, net=NetworkModel.zero())
    )
    assert res.app_time > 0


@pytest.mark.parametrize("bg", [False, True], ids=["alone", "bg"])
@pytest.mark.parametrize("backend", ["events", "fast"])
def test_finished_run_leaves_no_reference_cycles(backend, bg):
    """Reference counting alone frees a finished run on either backend:
    no job, scheduler, chare or LB window waits for the cyclic collector."""
    from repro.experiments.sweep import build_scenario

    scenario = build_scenario({
        "app": "jacobi2d", "scale": 0.05, "iterations": 10, "cores": 8,
        "balancer": "refine-vm", "bg": bg,
    })
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(scenario, backend=backend)
        assert result.app_time > 0
        del result, scenario
        collected = gc.collect()
    finally:
        gc.enable()
    assert collected == 0


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ["name", "value"],
            [("alpha", 1.234), ("b", 10.0)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.2" in text and "10.0" in text
        # all rows same width
        assert len(set(len(l) for l in lines[1:])) <= 2

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])
