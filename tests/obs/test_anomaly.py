"""The anomaly detectors: each rule, its thresholds, and composition."""

import pytest

from repro.obs.anomaly import (
    DEFAULT_THRESHOLDS,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    Finding,
    Thresholds,
    check_estimation_drift,
    check_history_outliers,
    check_lb_benefit,
    check_run,
    has_errors,
    max_severity,
)
from repro.obs.registry import RunRegistry

from .conftest import PAIRED_POINTS


def _point(label, app_time=1.0, migrations=2, bg=True, balancer="refine-vm",
           audit=None, **params):
    p = {"cores": 4, "balancer": balancer, "bg": bg, "seed": 0}
    p.update(params)
    return {
        "label": label,
        "params": p,
        "summary": {"app_time": app_time, "total_migrations": migrations},
        "audit": audit,
    }


def _record(points, run_id="run-x"):
    return {"run_id": run_id, "name": "smoke", "points": points}


# ---------------------------------------------------------------------------
# bg-est-drift
# ---------------------------------------------------------------------------


def test_estimation_drift_severities():
    clean = _record([_point("a", audit={"estimation_error": {"max_abs": 0.0}})])
    assert check_estimation_drift(clean) == []

    warn = _record([_point("a", audit={"estimation_error": {"max_abs": 1e-8}})])
    (f,) = check_estimation_drift(warn)
    assert f.rule == "bg-est-drift" and f.severity == SEV_WARNING

    err = _record([_point("a", audit={"estimation_error": {"max_abs": 1e-3}})])
    (f,) = check_estimation_drift(err)
    assert f.severity == SEV_ERROR
    assert f.subject == "run-x:a"
    assert "bg_est" in f.message


def test_estimation_drift_ignores_unaudited_points():
    assert check_estimation_drift(_record([_point("a", audit=None)])) == []


# ---------------------------------------------------------------------------
# lb-no-benefit
# ---------------------------------------------------------------------------


def test_lb_benefit_warns_only_on_interfered_slower_pairs():
    # LB slower than matched noLB under interference -> warning
    rec = _record([
        _point("nolb", app_time=1.0, balancer="none"),
        _point("lb", app_time=1.4),
    ])
    (f,) = check_lb_benefit(rec)
    assert f.rule == "lb-no-benefit" and f.severity == SEV_WARNING
    assert f.value == pytest.approx(1.4)

    # LB faster -> clean
    rec = _record([
        _point("nolb", app_time=2.0, balancer="none"),
        _point("lb", app_time=1.5),
    ])
    assert check_lb_benefit(rec) == []

    # no interference -> never judged, even if LB is slower
    rec = _record([
        _point("nolb", app_time=1.0, balancer="none", bg=False),
        _point("lb", app_time=1.4, bg=False),
    ])
    assert check_lb_benefit(rec) == []

    # different params (cores) -> not a pair
    rec = _record([
        _point("nolb", app_time=1.0, balancer="none", cores=4),
        _point("lb", app_time=1.4, cores=8),
    ])
    assert check_lb_benefit(rec) == []


# ---------------------------------------------------------------------------
# history rules
# ---------------------------------------------------------------------------


def test_penalty_outlier_against_history():
    history = [_record([_point("a", app_time=t)], run_id=f"h{i}")
               for i, t in enumerate([1.0, 1.02, 0.98])]
    # 3x the history median -> error
    findings = check_history_outliers(_record([_point("a", app_time=3.0)]), history)
    (f,) = [f for f in findings if f.rule == "penalty-outlier"]
    assert f.severity == SEV_ERROR
    assert f.value == pytest.approx(3.0)
    # 1.6x -> warning
    findings = check_history_outliers(_record([_point("a", app_time=1.6)]), history)
    (f,) = [f for f in findings if f.rule == "penalty-outlier"]
    assert f.severity == SEV_WARNING
    # in line with history -> clean
    assert check_history_outliers(_record([_point("a", app_time=1.05)]), history) == []
    # no history at all -> silent
    assert check_history_outliers(_record([_point("a", app_time=3.0)]), []) == []


def test_history_matching_requires_identical_params():
    history = [_record([_point("a", app_time=1.0, cores=4)], run_id="h0")]
    # same label, different params: not comparable, no finding
    current = _record([_point("a", app_time=3.0, cores=8)])
    assert check_history_outliers(current, history) == []


def test_migration_spike_with_absolute_floor():
    history = [_record([_point("a", migrations=2)], run_id=f"h{i}")
               for i in range(3)]
    # 12 vs median 2 = 6x -> error
    findings = check_history_outliers(_record([_point("a", migrations=12)]), history)
    (f,) = [f for f in findings if f.rule == "migration-spike"]
    assert f.severity == SEV_ERROR
    # 3x but only 3 migrations moved: below the absolute floor -> silent
    history1 = [_record([_point("a", migrations=1)], run_id="h0")]
    assert check_history_outliers(_record([_point("a", migrations=3)]), history1) == []


# ---------------------------------------------------------------------------
# composition + the acceptance fixture
# ---------------------------------------------------------------------------


def test_check_run_sorts_worst_first():
    history = [_record([_point("a", app_time=1.0)], run_id="h0")]
    record = _record([
        _point("a", app_time=3.0,
               audit={"estimation_error": {"max_abs": 1e-8}}),  # warning
    ])
    findings = check_run(record, history)
    assert [f.severity for f in findings] == [SEV_ERROR, SEV_WARNING]
    assert max_severity(findings) == SEV_ERROR
    assert has_errors(findings)
    assert max_severity([]) is None
    assert not has_errors([])


def test_injected_3x_penalty_outlier_in_registry_fixture(tmp_path, fabricate,
                                                         monkeypatch):
    """The acceptance fixture: prior smoke-like runs in a real registry,
    then one run with a 3x app_time on one label -> error finding."""
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbeef")
    registry = RunRegistry(tmp_path / "registry")
    for i in range(2):
        spec, result = fabricate("smoke", PAIRED_POINTS)
        registry.ingest_sweep(
            spec, result, created_utc=f"2026-08-06T1{i}:00:00Z"
        )
    outlier_points = [dict(p) for p in PAIRED_POINTS]
    outlier_points[1] = {**outlier_points[1], "app_time": 4.5}  # 3x the 1.5s median
    spec, result = fabricate("smoke", outlier_points)
    record = registry.ingest_sweep(
        spec, result, created_utc="2026-08-06T12:00:00Z"
    )

    history = registry.history("smoke", before=record["run_id"])
    assert len(history) == 2
    findings = check_run(record, history)
    outliers = [f for f in findings if f.rule == "penalty-outlier"]
    assert len(outliers) == 1
    assert outliers[0].severity == SEV_ERROR
    assert outliers[0].value == pytest.approx(3.0)
    assert "cores=4,balancer=refine-vm" in outliers[0].subject
    assert has_errors(findings)


def test_custom_thresholds_and_finding_dict():
    lax = Thresholds(penalty_warn=10.0, penalty_error=20.0)
    history = [_record([_point("a", app_time=1.0)], run_id="h0")]
    assert check_history_outliers(_record([_point("a", app_time=3.0)]),
                                  history, lax) == []
    f = Finding(rule="r", severity=SEV_INFO, subject="s", message="m", value=1.0)
    assert f.to_dict() == {
        "rule": "r", "severity": "info", "subject": "s", "message": "m",
        "value": 1.0, "threshold": None,
    }
    assert DEFAULT_THRESHOLDS.penalty_error == 2.0
