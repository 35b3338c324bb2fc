"""Bit-exact parity between the event engine and the fast-path backend.

The fast path (:mod:`repro.sim.fastpath`) is only allowed to exist
because it is *indistinguishable* from the event engine on every result
field — iteration times, migrations, migration costs, task CPU, energy,
final mapping, audit records. These tests enforce that with exact
``==`` comparisons (no tolerances): any float that differs in its last
bit is a bug in the fast path, not an accuracy trade-off. Traces are
held to the same contract: ``TraceLog`` lists compare with ``==`` and
the Chrome traces and audit JSONL written from them byte for byte.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Jacobi2D, SyntheticApp, Wave2D
from repro.cluster.netmodel import NetworkModel
from repro.core import (
    AdaptiveLBPolicy,
    CommAwareRefineLB,
    HierarchicalLB,
    LBPolicy,
    MigrationCostAwareLB,
    RefineLB,
    RefineVMInterferenceLB,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import BackgroundSpec, Scenario
from repro.experiments.sweep import (
    background_job_iterations,
    build_scenario,
    run_point,
    run_sweep,
)
from repro.experiments.sweep_presets import smoke_spec
from repro.obs.ledger import TimeLedger
from repro.obs.lineage import LineageRecorder
from repro.projections.export import write_chrome_trace
from repro.telemetry import AuditTrail, write_audit_jsonl


def _run_both(params, audit=False):
    """Run one param dict on both backends; return the two results and,
    with ``audit``, each run's audit trail."""
    trail_e = AuditTrail() if audit else None
    trail_f = AuditTrail() if audit else None
    res_e = run_scenario(build_scenario(params), backend="events", audit=trail_e)
    res_f = run_scenario(build_scenario(params), backend="fast", audit=trail_f)
    return res_e, res_f, trail_e, trail_f


def _run_both_ledgered(params):
    """Run one param dict on both backends with a ledger attached each."""
    scenario = build_scenario(params)
    led_e = TimeLedger(job="app", core_ids=scenario.app_core_ids)
    led_f = TimeLedger(job="app", core_ids=scenario.app_core_ids)
    res_e = run_scenario(build_scenario(params), backend="events", ledger=led_e)
    res_f = run_scenario(build_scenario(params), backend="fast", ledger=led_f)
    return res_e, res_f, led_e, led_f


def _assert_ledgers_identical(led_e, led_f):
    """Exact (Fraction-level and summary-level) ledger equality."""
    assert led_e.totals_exact() == led_f.totals_exact()
    assert led_e.busy_exact() == led_f.busy_exact()
    assert led_e.summary() == led_f.summary()


def _run_both_lineaged(params):
    """Run one param dict on both backends, each with an audit trail + a
    lineage recorder; return results and audit-joined payloads."""
    results, payloads = [], []
    for backend in ("events", "fast"):
        scenario = build_scenario(params)
        trail = AuditTrail()
        lineage = LineageRecorder(job="app", core_ids=scenario.app_core_ids)
        res = run_scenario(scenario, backend=backend, audit=trail, lineage=lineage)
        results.append(res)
        payloads.append(lineage.payload(audit=trail.records))
    return results[0], results[1], payloads[0], payloads[1]


def _run_both_traced(params):
    """Run one param dict on both backends with tracing and audit on;
    return ``(result, audit_records)`` per backend."""
    runs = []
    for backend in ("events", "fast"):
        scenario = dataclasses.replace(build_scenario(params), tracing=True)
        trail = AuditTrail()
        res = run_scenario(scenario, backend=backend, audit=trail)
        runs.append((res, trail.records))
    return runs


def _assert_traces_identical(runs, tmp_path):
    """Equal ``TraceLog`` lists, then byte-identical Chrome traces and
    audit JSONL written from each backend's run."""
    (res_e, _), (res_f, _) = runs
    _assert_results_identical(res_e, res_f)
    tr_e, tr_f = res_e.trace, res_f.trace
    assert tr_e.tasks and tr_e.iterations
    assert tr_e.tasks == tr_f.tasks
    assert tr_e.iterations == tr_f.iterations
    assert tr_e.lb_steps == tr_f.lb_steps
    assert tr_e.migrations == tr_f.migrations
    written = []
    for backend, (res, records) in zip(("events", "fast"), runs):
        trace_path = tmp_path / f"{backend}.trace.json"
        audit_path = tmp_path / f"{backend}.jsonl"
        write_chrome_trace(res.trace, str(trace_path), job_name="p", audit=records)
        write_audit_jsonl(records, audit_path)
        written.append((trace_path.read_bytes(), audit_path.read_bytes()))
    assert written[0] == written[1]


def _assert_results_identical(res_e, res_f):
    """Field-by-field exact equality of two ExperimentResults."""
    assert res_e.app == res_f.app  # RunStats incl. iteration_times tuple
    assert res_e.bg == res_f.bg
    assert res_e.energy == res_f.energy
    assert res_e.final_mapping == res_f.final_mapping
    assert res_e.app_time == res_f.app_time
    assert res_e.bg_time == res_f.bg_time


class TestPresetParity:
    @pytest.mark.parametrize(
        "point", smoke_spec().expand(), ids=lambda p: p.label
    )
    def test_smoke_points_bit_identical(self, point):
        res_e, res_f, _, _ = _run_both(point.params)
        _assert_results_identical(res_e, res_f)

    @pytest.mark.parametrize("balancer", ["none", "refine", "greedy", "greedy-aware"])
    def test_other_balancers(self, balancer):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 8,
            "cores": 4,
            "bg": True,
            "balancer": balancer,
        }
        res_e, res_f, _, _ = _run_both(params)
        _assert_results_identical(res_e, res_f)

    @pytest.mark.parametrize("app", ["wave2d", "mol3d"])
    def test_other_apps(self, app):
        params = {
            "app": app,
            "scale": 0.05,
            "iterations": 6,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        }
        res_e, res_f, _, _ = _run_both(params)
        _assert_results_identical(res_e, res_f)

    def test_more_chares_than_fit_one_core_each(self):
        # tiny app on many cores: some cores get no chares at all
        params = {
            "app": "jacobi2d",
            "scale": 0.02,
            "iterations": 5,
            "cores": 8,
            "bg": False,
            "balancer": "refine-vm",
        }
        res_e, res_f, _, _ = _run_both(params)
        _assert_results_identical(res_e, res_f)

    def test_bg_weight_override(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 8,
            "cores": 4,
            "bg": True,
            "bg_weight": 0.5,
            "balancer": "refine-vm",
        }
        res_e, res_f, _, _ = _run_both(params)
        _assert_results_identical(res_e, res_f)

    def test_point_and_sweep_summaries_match(self):
        spec = smoke_spec()
        for p in spec.expand():
            assert run_point(p.params, backend="events") == run_point(
                p.params, backend="fast"
            )
        se = run_sweep(spec, workers=1, cache=None, backend="events")
        sf = run_sweep(spec, workers=1, cache=None, backend="fast")
        sd = run_sweep(spec, workers=1, cache=None)
        assert se.summaries() == sf.summaries() == sd.summaries()


class TestTelemetryParity:
    def test_audit_records_identical(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 10,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        }
        res_e, res_f, trail_e, trail_f = _run_both(params, audit=True)
        _assert_results_identical(res_e, res_f)
        assert len(trail_e.records) > 0
        assert trail_e.records == trail_f.records

    def test_telemetry_does_not_change_results(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 8,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        }
        bare = run_scenario(build_scenario(params), backend="fast")
        instrumented = run_scenario(
            build_scenario(params), backend="fast", audit=AuditTrail()
        )
        _assert_results_identical(bare, instrumented)


class TestLedgerParity:
    """The time-attribution ledger is part of the parity contract."""

    @pytest.mark.parametrize(
        "point", smoke_spec().expand(), ids=lambda p: p.label
    )
    def test_smoke_point_ledgers_identical(self, point):
        res_e, res_f, led_e, led_f = _run_both_ledgered(point.params)
        _assert_results_identical(res_e, res_f)
        _assert_ledgers_identical(led_e, led_f)
        assert led_e.conserved and led_e.residual_exact() == 0

    def test_ledger_does_not_change_results(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 8,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        }
        for backend in ("events", "fast"):
            bare = run_scenario(build_scenario(params), backend=backend)
            sc = build_scenario(params)
            ledgered = run_scenario(
                sc,
                backend=backend,
                ledger=TimeLedger(job="app", core_ids=sc.app_core_ids),
            )
            _assert_results_identical(bare, ledgered)


class TestLineageParity:
    """The chare-lineage observatory is part of the parity contract."""

    @pytest.mark.parametrize(
        "point", smoke_spec().expand(), ids=lambda p: p.label
    )
    def test_smoke_point_lineage_identical(self, point):
        res_e, res_f, pay_e, pay_f = _run_both_lineaged(point.params)
        _assert_results_identical(res_e, res_f)
        # graphs, metrics and counterfactual bounds: exact == equality
        assert pay_e == pay_f
        # counterfactual sanity on the smoke preset: every step helps
        for step in pay_e["steps"]:
            assert step["oracle_max_s"] <= step["observed_max_s"]
            assert step["sane"]

    def test_lineage_does_not_change_results(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 8,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        }
        for backend in ("events", "fast"):
            bare = run_scenario(build_scenario(params), backend=backend)
            sc = build_scenario(params)
            lineaged = run_scenario(
                sc,
                backend=backend,
                lineage=LineageRecorder(job="app", core_ids=sc.app_core_ids),
            )
            _assert_results_identical(bare, lineaged)


def _constant_share_params(bg_weight):
    # no balancer: the proportional share on the interfered cores is
    # piecewise-constant with change points only at background
    # iteration boundaries
    return {
        "app": "jacobi2d",
        "scale": 0.05,
        "iterations": 8,
        "cores": 2,  # every app core is interfered
        "bg": True,
        "bg_weight": bg_weight,
        "balancer": "none",
    }


def _bg_departure_params(bg_overlap):
    # overlap < 1: the background job drains mid-run (share count drops
    # to one, then the solo fold and inline mode take over). overlap > 1:
    # it spans the whole app run.
    return {
        "app": "jacobi2d",
        "scale": 0.05,
        "iterations": 10,
        "cores": 4,
        "bg": True,
        "bg_overlap": bg_overlap,
        "balancer": "refine-vm",
    }


def _piecewise_balancer_params(balancer):
    return {
        "app": "jacobi2d",
        "scale": 0.05,
        "iterations": 9,
        "cores": 4,
        "bg": True,
        "bg_weight": 0.7,
        "lb_period": 3,
        "balancer": balancer,
    }


def _piecewise_app_params(app):
    return {
        "app": app,
        "scale": 0.05,
        "iterations": 7,
        "cores": 4,
        "bg": True,
        "bg_weight": 1.5,
        "balancer": "refine-vm",
    }


_BG_WEIGHTS = [0.25, 1.0, 2.0]
_BG_OVERLAPS = [0.5, 1.5, 3.0]
_BALANCERS = ["none", "refine-vm", "refine", "greedy", "greedy-aware"]
_APPS = ["jacobi2d", "wave2d", "mol3d"]

#: Every contended regime TestContendedRegimeParity pins, by id.
_CONTENDED_CASES = (
    [(f"constant-share-w{w}", _constant_share_params(w)) for w in _BG_WEIGHTS]
    + [(f"bg-departure-o{o}", _bg_departure_params(o)) for o in _BG_OVERLAPS]
    + [(f"piecewise-{b}", _piecewise_balancer_params(b)) for b in _BALANCERS]
    + [(f"piecewise-{a}", _piecewise_app_params(a)) for a in _APPS]
)


class TestContendedRegimeParity:
    """Contended cores, pinned to exact ``==``.

    These scenarios run the fast path's contended-core replay: a
    constant-share background job spanning whole inter-LB windows
    (``balancer="none"``: the share count on an interfered core never
    changes mid-run except at background barriers) and piecewise-constant
    share counts whose change points fall between LB steps (every
    balancer; background arrivals/departures at its own barriers). The
    replay must be indistinguishable from the event engine on every
    field.
    """

    @pytest.mark.parametrize("bg_weight", _BG_WEIGHTS)
    def test_constant_share_whole_run(self, bg_weight):
        res_e, res_f, _, _ = _run_both(_constant_share_params(bg_weight))
        _assert_results_identical(res_e, res_f)

    @pytest.mark.parametrize("bg_overlap", _BG_OVERLAPS)
    def test_bg_departure_mid_run(self, bg_overlap):
        res_e, res_f, _, _ = _run_both(_bg_departure_params(bg_overlap))
        _assert_results_identical(res_e, res_f)

    @pytest.mark.parametrize("balancer", _BALANCERS)
    def test_piecewise_share_all_balancers(self, balancer):
        res_e, res_f, _, _ = _run_both(_piecewise_balancer_params(balancer))
        _assert_results_identical(res_e, res_f)

    @pytest.mark.parametrize("app", _APPS)
    def test_piecewise_share_all_apps(self, app):
        res_e, res_f, _, _ = _run_both(_piecewise_app_params(app))
        _assert_results_identical(res_e, res_f)

    def test_contended_audit_records_identical(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 10,
            "cores": 2,
            "bg": True,
            "bg_weight": 2.0,
            "balancer": "refine-vm",
        }
        res_e, res_f, trail_e, trail_f = _run_both(params, audit=True)
        _assert_results_identical(res_e, res_f)
        assert len(trail_e.records) > 0
        assert trail_e.records == trail_f.records

    def test_contended_ledger_identical(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 10,
            "cores": 2,
            "bg": True,
            "bg_weight": 0.5,
            "balancer": "none",
        }
        res_e, res_f, led_e, led_f = _run_both_ledgered(params)
        _assert_results_identical(res_e, res_f)
        _assert_ledgers_identical(led_e, led_f)
        assert led_e.conserved and led_e.residual_exact() == 0

    def test_contended_lineage_identical(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 10,
            "cores": 2,
            "bg": True,
            "bg_weight": 1.0,
            "balancer": "refine-vm",
        }
        res_e, res_f, pay_e, pay_f = _run_both_lineaged(params)
        _assert_results_identical(res_e, res_f)
        assert pay_e == pay_f


def _arrival_scenario(start, bg_cores, bg_iterations, weight, balancer):
    # 6 application cores on 4-core nodes: cores 6-7 carry no chares but
    # sit on the application's second node, so the power meter reads them
    app = SyntheticApp(
        lambda index, iteration: 0.005 + 0.003 * ((index // 2 + iteration) % 5),
        num_chares=24,
        state_bytes=256.0,
    )
    return Scenario(
        app=app,
        num_cores=6,
        iterations=10,
        balancer=None if balancer is None else balancer(0.05),
        policy=LBPolicy(period_iterations=2),
        bg=BackgroundSpec(
            model=SyntheticApp(lambda index, iteration: 0.02, num_chares=2),
            core_ids=bg_cores,
            iterations=bg_iterations,
            weight=weight,
            start=start,
        ),
        tracing=True,
    )


@pytest.mark.parametrize(
    "balancer", [None, RefineLB, RefineVMInterferenceLB],
    ids=["none", "refine", "refine-vm"],
)
@pytest.mark.parametrize("weight", [0.5, 2.0])
@pytest.mark.parametrize("bg_iterations", [6, 60], ids=["leaves", "stays"])
@pytest.mark.parametrize(
    "bg_cores", [(1, 4), (2, 6), (6, 7)], ids=["inside", "across", "outside"]
)
@pytest.mark.parametrize("start", [0.0137, 0.2], ids=["early", "late"])
def test_arrival_parity(start, bg_cores, bg_iterations, weight, balancer):
    """A background job arriving mid-iteration, on application cores,
    straddling them or only on cores the power meter reads, and leaving
    before the application or outlasting it: the replay must equal the
    engine on results and trace, with and without LB."""
    res_e, res_f = [
        run_scenario(
            _arrival_scenario(start, bg_cores, bg_iterations, weight, balancer),
            backend=backend,
        )
        for backend in ("events", "fast")
    ]
    _assert_results_identical(res_e, res_f)
    tr_e, tr_f = res_e.trace, res_f.trace
    # the regimes under test: arrival inside an iteration, departure
    # before or after the application's end (the power meter's read),
    # migrations whenever balancing
    assert any(it.start < start < it.end for it in tr_e.iterations)
    leaves = res_e.bg.finished_at < res_e.app.finished_at
    assert leaves == (bg_iterations == 6)
    assert (res_e.app.total_migrations > 0) == (balancer is not None)
    assert tr_e.tasks and tr_e.tasks == tr_f.tasks
    assert tr_e.iterations == tr_f.iterations
    assert tr_e.lb_steps == tr_f.lb_steps
    assert tr_e.migrations == tr_f.migrations


@pytest.mark.parametrize(
    "balancer", [None, RefineVMInterferenceLB], ids=["none", "refine-vm"]
)
@pytest.mark.parametrize("work", [0.01, 0.0])
def test_corun_completion_tie_parity(work, balancer):
    """An application task and a background task on one core, projected
    to complete at the same instant: equal work, equal weight, both
    started at t=0 on core 0. Results, trace, ledger, lineage and audit
    must equal the engine's. This covers the co-run tie, but it cannot
    tell the fast path's first-inserted tie rule (``t1 < t0`` in
    ``_FastCore.change``) from ``t1 <= t0``: both give these outputs."""
    runs = []
    for backend in ("events", "fast"):
        scenario = Scenario(
            app=SyntheticApp(lambda index, iteration: work, num_chares=4),
            num_cores=2,
            iterations=10,
            balancer=None if balancer is None else balancer(0.05),
            policy=LBPolicy(period_iterations=2),
            bg=BackgroundSpec(
                model=SyntheticApp(lambda index, iteration: work, num_chares=2),
                core_ids=(0,),
                iterations=10,
                weight=1.0,
                start=0.0,
            ),
            tracing=True,
        )
        trail = AuditTrail()
        ledger = TimeLedger(job="app", core_ids=scenario.app_core_ids)
        lineage = LineageRecorder(job="app", core_ids=scenario.app_core_ids)
        res = run_scenario(
            scenario, backend=backend, audit=trail, ledger=ledger, lineage=lineage
        )
        runs.append((res, trail.records, ledger.summary(),
                     lineage.payload(audit=trail.records)))
    (res_e, audit_e, led_e, lin_e), (res_f, audit_f, led_f, lin_f) = runs
    _assert_results_identical(res_e, res_f)
    # the tie: core 0's first application task shared the core half and
    # half for its whole life, so the background task that started with
    # it, with the same work and weight, completed at the same instant
    first = min((t for t in res_e.trace.tasks if t.core_id == 0),
                key=lambda t: t.start)
    assert (first.start, first.end, first.cpu_time) == (0.0, 2 * work, work)
    assert res_e.trace.tasks == res_f.trace.tasks
    assert res_e.trace.iterations == res_f.trace.iterations
    assert res_e.trace.lb_steps == res_f.trace.lb_steps
    assert res_e.trace.migrations == res_f.trace.migrations
    assert led_e == led_f
    assert lin_e == lin_f
    assert audit_e == audit_f
    assert (len(audit_e) > 0) == (balancer is not None)


def _barrier_tie_scenario(net, app_work, weight, chares, cores):
    """A background job of one chare on core 0 beside the application:
    its one-core barrier has no communication delay on any network, and
    the application's has none on ``NetworkModel.zero()``."""
    return Scenario(
        app=SyntheticApp(lambda index, iteration: app_work, num_chares=chares),
        num_cores=cores,
        iterations=3,
        policy=LBPolicy(period_iterations=2),
        net=NetworkModel.zero() if net == "zero" else NetworkModel.native(),
        bg=BackgroundSpec(
            model=SyntheticApp(lambda index, iteration: 0.03, num_chares=1),
            core_ids=(0,),
            iterations=3,
            weight=weight,
            start=0.0,
        ),
        tracing=True,
    )


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("chares", [1, 4])
@pytest.mark.parametrize("weight", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("app_work", [0.005, 0.01])
@pytest.mark.parametrize("net", ["zero", "native"])
def test_zero_delay_barrier_tie_parity(net, app_work, weight, chares, cores):
    """A completion that drains a job whose barrier releases at that same
    instant (zero communication delay), while a co-runner keeps the core.
    The engine re-projects the co-runner before the completion callback
    reaches the barrier, so the co-runner's projection is queued ahead of
    anything the barrier schedules at that instant; the fast path must
    order the two alike."""
    res_e, res_f = [
        run_scenario(
            _barrier_tie_scenario(net, app_work, weight, chares, cores),
            backend=backend,
        )
        for backend in ("events", "fast")
    ]
    _assert_results_identical(res_e, res_f)
    assert res_e.trace.tasks == res_f.trace.tasks
    assert res_e.trace.iterations == res_f.trace.iterations


def _adaptive_scenario(policy, balancer, weight):
    # _arrival_scenario's inputs over 30 iterations, the background job
    # on cores 1 and 4 from t = 0.0137 until after the application ends
    app = SyntheticApp(
        lambda index, iteration: 0.005 + 0.003 * ((index // 2 + iteration) % 5),
        num_chares=24,
        state_bytes=256.0,
    )
    return Scenario(
        app=app,
        num_cores=6,
        iterations=30,
        balancer=balancer(0.05),
        policy=policy,
        bg=BackgroundSpec(
            model=SyntheticApp(lambda index, iteration: 0.02, num_chares=2),
            core_ids=(1, 4),
            iterations=60,
            weight=weight,
            start=0.0137,
        ),
        tracing=True,
    )


@pytest.mark.parametrize(
    "balancer", [RefineLB, RefineVMInterferenceLB], ids=["refine", "refine-vm"]
)
@pytest.mark.parametrize("weight", [0.5, 2.0])
def test_adaptive_policy_parity(balancer, weight):
    """An imbalance-triggered policy on a contended run: the fast path
    folds per-core walls only for a policy that reads imbalance, and its
    triggers, results and trace must equal the engine's."""
    adaptive = AdaptiveLBPolicy(
        period_iterations=25, imbalance_threshold=1.2, min_gap_iterations=2
    )
    runs = []
    for backend in ("events", "fast"):
        trail = AuditTrail()
        res = run_scenario(
            _adaptive_scenario(adaptive, balancer, weight),
            backend=backend,
            audit=trail,
        )
        runs.append((res, trail.records))
    (res_e, audit_e), (res_f, audit_f) = runs
    _assert_results_identical(res_e, res_f)
    assert res_e.trace.tasks == res_f.trace.tasks
    assert res_e.trace.iterations == res_f.trace.iterations
    assert res_e.trace.lb_steps == res_f.trace.lb_steps
    assert res_e.trace.migrations == res_f.trace.migrations
    assert audit_e == audit_f
    # the trigger fired: more steps than the periodic heartbeat alone
    periodic = run_scenario(
        _adaptive_scenario(LBPolicy(period_iterations=25), balancer, weight),
        backend="fast",
    )
    assert periodic.app.lb_steps == 1
    assert res_f.app.lb_steps > 5 * periodic.app.lb_steps


_NETS = {"native": NetworkModel.native, "virtualized": NetworkModel.virtualized}

#: balancer name -> factory of a fresh instance priced on ``net``
_WRAPPED_BALANCERS = {
    "comm-aware": lambda net: CommAwareRefineLB(0.05),
    "hierarchical": lambda net: HierarchicalLB(
        lambda c: c // 4, RefineVMInterferenceLB(0.05)
    ),
    "migration-cost": lambda net: MigrationCostAwareLB(
        RefineVMInterferenceLB(0.05), net
    ),
}


def _wrapped_scenario(app, balancer, net_name, use_comm_graph, iterations=24):
    """``app`` on 8 cores beside the 2-core background job on cores 0-1,
    sized to last the whole run, with an LB step every 4 iterations."""
    net = _NETS[net_name]()
    bg_model = Wave2D.background(grid_size=170)
    return Scenario(
        app=app,
        num_cores=8,
        iterations=iterations,
        balancer=_WRAPPED_BALANCERS[balancer](net),
        policy=LBPolicy(period_iterations=4),
        bg=BackgroundSpec(
            model=bg_model,
            core_ids=(0, 1),
            iterations=background_job_iterations(
                app, 8, iterations, bg_model, weight=1.0
            ),
        ),
        net=net,
        tracing=True,
        use_comm_graph=use_comm_graph,
    )


def _assert_wrapped_parity(make_scenario):
    """Results, trace and audit equal on both backends; returns the
    engine's migration count."""
    runs = []
    for backend in ("events", "fast"):
        trail = AuditTrail()
        res = run_scenario(make_scenario(), backend=backend, audit=trail)
        runs.append((res, trail.records))
    (res_e, audit_e), (res_f, audit_f) = runs
    _assert_results_identical(res_e, res_f)
    assert res_e.trace.tasks == res_f.trace.tasks
    assert res_e.trace.iterations == res_f.trace.iterations
    assert res_e.trace.lb_steps == res_f.trace.lb_steps
    assert res_e.trace.migrations == res_f.trace.migrations
    assert audit_e == audit_f
    assert res_e.app.lb_steps > 0
    return res_e.app.total_migrations


@pytest.mark.parametrize("balancer", sorted(_WRAPPED_BALANCERS))
def test_comm_graph_and_wrapped_balancer_parity(balancer):
    """Placement-dependent communication, the comm-aware receiver choice
    and the two balancer wrappers on both networks: a migrating step
    changes the mapping the communication delay is computed from, so the
    cached delay must follow it on both backends. The cost gate
    suppresses every step at Jacobi2D strip sizes; small chare state
    lets its migrations through (a synthetic app, no comm graph)."""
    migrated = []
    for use_comm_graph in (False, True):
        for net_name in sorted(_NETS):
            migrated.append(
                _assert_wrapped_parity(
                    lambda: _wrapped_scenario(
                        Jacobi2D(grid_size=512, odf=4),
                        balancer,
                        net_name,
                        use_comm_graph,
                    )
                )
            )
    if balancer == "migration-cost":
        migrated.append(
            _assert_wrapped_parity(
                lambda: _wrapped_scenario(
                    SyntheticApp([0.004] * 64, state_bytes=4e3),
                    balancer,
                    "native",
                    False,
                )
            )
        )
    # every balancer moves chares in at least one case, so the comm
    # delay cache is reset mid-run
    assert max(migrated) > 0


class TestTraceParity:
    """Projections traces are part of the parity contract: the fast path
    records the engine's task, iteration, LB-step and migration events,
    and the files written from them are byte-identical."""

    @pytest.mark.parametrize(
        "point", smoke_spec().expand(), ids=lambda p: p.label
    )
    def test_smoke_point_traces_identical(self, point, tmp_path):
        _assert_traces_identical(_run_both_traced(point.params), tmp_path)

    @pytest.mark.parametrize(
        "params",
        [params for _, params in _CONTENDED_CASES],
        ids=[case_id for case_id, _ in _CONTENDED_CASES],
    )
    def test_contended_traces_identical(self, params, tmp_path):
        _assert_traces_identical(_run_both_traced(params), tmp_path)

    def test_lb_steps_and_migrations_are_traced(self):
        runs = _run_both_traced(_piecewise_balancer_params("greedy"))
        trace = runs[1][0].trace
        assert trace.lb_steps and trace.migrations
        assert sum(s.num_migrations for s in trace.lb_steps) == len(
            trace.migrations
        )

    def test_tracing_does_not_change_results(self):
        """The null-hook rule: a traced run's results, audit records
        included, equal the untraced run's on either backend."""
        params = _piecewise_balancer_params("refine-vm")
        for backend in ("events", "fast"):
            trail_bare, trail_traced = AuditTrail(), AuditTrail()
            bare = run_scenario(
                build_scenario(params), backend=backend, audit=trail_bare
            )
            traced = run_scenario(
                dataclasses.replace(build_scenario(params), tracing=True),
                backend=backend,
                audit=trail_traced,
            )
            _assert_results_identical(bare, traced)
            assert trail_bare.records == trail_traced.records
            assert not bare.trace.enabled and not bare.trace.tasks
            assert traced.trace.tasks


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        params = {"app": "jacobi2d", "scale": 0.05, "iterations": 2, "cores": 4}
        for backend in ("nope", "batch", "auto"):
            calls = [
                lambda: run_scenario(build_scenario(params), backend=backend),
                lambda: run_point(params, backend=backend),
                lambda: run_sweep(
                    smoke_spec(), workers=1, cache=None, backend=backend
                ),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="unknown backend") as err:
                    call()
                assert "\n" not in str(err.value)


# ----------------------------------------------------------------------
# Hypothesis: random scenarios, exact equality on every field
# ----------------------------------------------------------------------
_scenario_params = st.fixed_dictionaries(
    {
        "app": st.sampled_from(["jacobi2d", "wave2d", "mol3d"]),
        "scale": st.sampled_from([0.02, 0.05, 0.08]),
        "iterations": st.integers(min_value=1, max_value=12),
        "cores": st.sampled_from([2, 4, 6, 8]),
        "balancer": st.sampled_from(
            ["none", "refine-vm", "refine", "greedy", "greedy-aware"]
        ),
        "bg": st.booleans(),
        "lb_period": st.sampled_from([2, 5, 10]),
        "epsilon": st.sampled_from([0.02, 0.05, 0.1]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)


@settings(max_examples=25, deadline=None)
@given(params=_scenario_params)
def test_random_scenarios_bit_identical(params):
    res_e, res_f, _, _ = _run_both(params)
    _assert_results_identical(res_e, res_f)
    # exact float equality, element by element (tuple == above already
    # implies it, but make NaN-freedom explicit)
    for a, b in zip(res_e.app.iteration_times, res_f.app.iteration_times):
        assert a == b and not math.isnan(a)


@settings(max_examples=15, deadline=None)
@given(params=_scenario_params)
def test_random_scenarios_ledger_conserved_and_identical(params):
    """Conservation is exact (Fraction residual == 0) on both backends,
    and the two backends produce bit-identical ledgers."""
    res_e, res_f, led_e, led_f = _run_both_ledgered(params)
    _assert_results_identical(res_e, res_f)
    _assert_ledgers_identical(led_e, led_f)
    assert led_e.conserved
    assert led_e.residual_exact() == 0
    assert led_f.residual_exact() == 0


@settings(max_examples=15, deadline=None)
@given(params=_scenario_params)
def test_random_scenarios_lineage_identical(params):
    """Both backends produce exactly equal lineage payloads, and the
    oracle bound never exceeds the observed replay (exact mean <= max
    on the effective load — a violation is a library bug)."""
    res_e, res_f, pay_e, pay_f = _run_both_lineaged(params)
    _assert_results_identical(res_e, res_f)
    assert pay_e == pay_f
    for step in pay_e["steps"]:
        assert step["oracle_max_s"] <= step["observed_max_s"]
        assert step["oracle_max_s"] <= step["nolb_max_s"]


# ----------------------------------------------------------------------
# Hypothesis: contended regimes (constant-share and piecewise-constant
# proportional shares — the fast path's contended-core replay), exact
# equality
# ----------------------------------------------------------------------
_contended_params = st.fixed_dictionaries(
    {
        "app": st.sampled_from(["jacobi2d", "wave2d", "mol3d"]),
        "scale": st.sampled_from([0.02, 0.05, 0.08]),
        "iterations": st.integers(min_value=1, max_value=12),
        "cores": st.sampled_from([2, 4, 6, 8]),
        "balancer": st.sampled_from(
            ["none", "refine-vm", "refine", "greedy", "greedy-aware"]
        ),
        "bg": st.just(True),
        "bg_weight": st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        "bg_overlap": st.sampled_from([0.5, 1.2, 3.0]),
        "lb_period": st.sampled_from([2, 5, 10]),
        "epsilon": st.sampled_from([0.02, 0.05, 0.1]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)


@settings(max_examples=25, deadline=None)
@given(params=_contended_params)
def test_contended_random_scenarios_bit_identical(params):
    res_e, res_f, _, _ = _run_both(params)
    _assert_results_identical(res_e, res_f)
    for a, b in zip(res_e.app.iteration_times, res_f.app.iteration_times):
        assert a == b and not math.isnan(a)


@settings(max_examples=10, deadline=None)
@given(params=_contended_params)
def test_contended_random_ledger_conserved_and_identical(params):
    res_e, res_f, led_e, led_f = _run_both_ledgered(params)
    _assert_results_identical(res_e, res_f)
    _assert_ledgers_identical(led_e, led_f)
    assert led_e.conserved and led_e.residual_exact() == 0
    assert led_f.residual_exact() == 0


@settings(max_examples=10, deadline=None)
@given(params=_contended_params)
def test_contended_random_traces_identical(params):
    runs = _run_both_traced(params)
    (res_e, rec_e), (res_f, rec_f) = runs
    _assert_results_identical(res_e, res_f)
    assert rec_e == rec_f
    for name in ("tasks", "iterations", "lb_steps", "migrations"):
        assert getattr(res_e.trace, name) == getattr(res_f.trace, name)


@settings(max_examples=10, deadline=None)
@given(params=_contended_params)
def test_contended_random_lineage_and_audit_identical(params):
    res_e, res_f, pay_e, pay_f = _run_both_lineaged(params)
    _assert_results_identical(res_e, res_f)
    assert pay_e == pay_f


# A chare whose first task takes ``big`` CPU-seconds pushes the clock of
# every later task past ``big``. Past 2**24 s (~1.7e7 s) half an ulp of
# the clock exceeds the completion slack, so a task can be left with a
# remainder that re-projecting cannot add to the clock: both backends
# used to spin forever there. The scenarios run in a child process under
# a timeout, so a regression fails instead of hanging the suite.
_CLOCK_SCRIPT = """
import json
from repro.apps import SyntheticApp
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import BackgroundSpec, Scenario

def scenario(big, contended):
    app = SyntheticApp(
        lambda i, it: big if it == 0 else 0.0123 + 0.0007 * i, num_chares=4
    )
    bg = None
    if contended:
        bg = BackgroundSpec(
            model=SyntheticApp(
                lambda i, it: big if it == 0 else 0.0151 + 0.0003 * i,
                num_chares=2,
            ),
            core_ids=(0, 1),
            iterations=10,
        )
    return Scenario(app=app, num_cores=2, iterations=4, bg=bg)

out = {}
for big in (3e7, 1e7):
    for contended in (False, True):
        for backend in ("events", "fast"):
            try:
                r = run_scenario(scenario(big, contended), backend=backend)
            except RuntimeError as err:
                outcome = ["error", str(err)]
            else:
                outcome = ["result", repr((
                    r.app, r.bg, r.energy, sorted(r.final_mapping.items()),
                    r.app_time, r.bg_time,
                ))]
            out[f"{big:g}/{'contended' if contended else 'solo'}/{backend}"] = outcome
print(json.dumps(out))
"""


def test_clock_too_coarse_to_advance_raises_on_both_backends():
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CLOCK_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout)
    for regime in ("solo", "contended"):
        stalled_e, stalled_f = out[f"3e+07/{regime}/events"], out[f"3e+07/{regime}/fast"]
        assert stalled_e[0] == "error"
        assert "cannot advance the simulated clock past" in stalled_e[1]
        assert stalled_f == stalled_e  # the same one-line error, bit for bit
        # below 2**24 s the same scenario finishes, identically
        fine_e, fine_f = out[f"1e+07/{regime}/events"], out[f"1e+07/{regime}/fast"]
        assert fine_e[0] == "result"
        assert fine_f == fine_e
