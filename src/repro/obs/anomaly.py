"""Rule-based anomaly detection over registry history and audit trails.

The paper's Eq. (2) exists because interference is invisible until the
runtime watches for it; these detectors apply the same doctrine to the
reproduction itself. Each rule reduces one observable signal to zero or
more structured :class:`Finding`\\ s with a severity:

* ``bg-est-drift`` — the Eq. (2) estimator is *exact* in this simulator
  (the telemetry suite pins ``max |bg_est - bg_true| < 1e-9``), so any
  drift in a run's audit summaries means the window accounting broke;
* ``penalty-outlier`` — a point's ``app_time`` far above the median of
  the same point (same label *and* identical parameters) across prior
  registered runs: the cross-run analogue of a Fig. 2 timing-penalty
  bar jumping;
* ``migration-spike`` — migration count far above the same history
  median: balancer churn (the ABL-PERIOD failure mode) arriving
  unannounced;
* ``lb-no-benefit`` — within one run, an interfered LB point not beating
  its matched noLB point (the paper's directional Fig. 2 claim). Tiny
  smoke scenarios legitimately violate this (LB overhead dominates), so
  it is a warning, never an error;
* ``ledger-not-conserved`` — a point's time-attribution ledger
  (:mod:`repro.obs.ledger`) failed its bit-exact conservation check:
  the accounting itself is broken, always an error;
* ``interference-dominated`` — a point lost more time to co-runner
  contention than it spent computing (stolen/compute ratio): the
  paper's motivating pathology, surfaced per point;
* ``migration-overhead-spike`` — a point's LB-pause (migration
  overhead) wall fraction far above the same point's history median:
  the balancer is paying more than it used to for the same scenario;
* ``idle-regression`` — a point's barrier-idle wall fraction far above
  its history median: load imbalance creeping back in;
* ``imbalance-unrecovered`` — a point's run-level LB efficiency
  (recovered / recoverable core-seconds, :mod:`repro.obs.lineage`)
  well below the same point's registry-history median: the balancer is
  recovering less of the achievable imbalance than it used to;
* ``thrashing-chare`` — one chare migrated more than K times while the
  LB steps that moved it recovered nothing: pure churn, the ABL-PERIOD
  failure mode pinned to the object that suffers it.

Severities: ``info`` < ``warning`` < ``error``. ``repro runs check``
exits non-zero only on ``error`` findings, so the CI anomaly gate fails
on broken physics and 2x-and-worse cliffs, not on noise. Thresholds are
one frozen dataclass (:class:`Thresholds`) so every consumer judges by
the same bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "SEV_INFO",
    "SEV_WARNING",
    "SEV_ERROR",
    "Finding",
    "Thresholds",
    "DEFAULT_THRESHOLDS",
    "check_estimation_drift",
    "check_lb_benefit",
    "check_history_outliers",
    "check_ledger",
    "check_lineage",
    "check_run",
    "max_severity",
    "has_errors",
]

SEV_INFO = "info"
SEV_WARNING = "warning"
SEV_ERROR = "error"

_SEV_ORDER = {SEV_INFO: 0, SEV_WARNING: 1, SEV_ERROR: 2}


@dataclass(frozen=True)
class Finding:
    """One detected anomaly: which rule fired, on what, and how badly."""

    rule: str
    severity: str
    subject: str
    message: str
    value: Optional[float] = None
    threshold: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class Thresholds:
    """The bars every detector judges against (see module docstring)."""

    #: Eq. 2 max |bg_est - bg_true| above which to warn / error (s).
    bg_est_warn_s: float = 1e-9
    bg_est_error_s: float = 1e-6
    #: app_time ratio vs history median that warns / errors.
    penalty_warn: float = 1.5
    penalty_error: float = 2.0
    #: migration-count ratio vs history median that warns / errors ...
    migration_warn: float = 2.0
    migration_error: float = 4.0
    #: ... provided at least this many migrations moved (absolute floor).
    migration_min: int = 4
    #: minimum prior runs before history rules fire at all.
    min_history: int = 1
    #: ledger stolen/compute time ratio that warns / errors.
    interference_warn: float = 0.5
    interference_error: float = 1.0
    #: ledger overhead wall-fraction ratio vs history median ...
    lb_overhead_warn: float = 2.0
    lb_overhead_error: float = 4.0
    #: ... provided overhead is at least this fraction of wall (floor).
    lb_overhead_min: float = 0.01
    #: ledger idle wall-fraction ratio vs history median ...
    idle_warn: float = 1.5
    idle_error: float = 2.5
    #: ... provided idle is at least this fraction of wall (floor).
    idle_min: float = 0.05
    #: absolute drop in run LB efficiency vs the identical point's
    #: history median that warns / errors.
    efficiency_drop_warn: float = 0.2
    efficiency_drop_error: float = 0.5
    #: migrations of one chare beyond which zero-recovery churn is
    #: judged thrashing.
    thrash_migrations: int = 3


DEFAULT_THRESHOLDS = Thresholds()


def _severity(value: float, warn: float, error: float) -> Optional[str]:
    if value >= error:
        return SEV_ERROR
    if value >= warn:
        return SEV_WARNING
    return None


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------------------------
# per-run rules
# ---------------------------------------------------------------------------


def check_estimation_drift(
    record: Mapping[str, Any], thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> List[Finding]:
    """Eq. 2 estimation error beyond float noise in audited points."""
    findings: List[Finding] = []
    for point in record.get("points", ()):
        audit = point.get("audit")
        if not isinstance(audit, Mapping):
            continue
        est = audit.get("estimation_error", {})
        max_abs = float(est.get("max_abs", 0.0) or 0.0)
        severity = _severity(
            max_abs, thresholds.bg_est_warn_s, thresholds.bg_est_error_s
        )
        if severity is not None:
            findings.append(
                Finding(
                    rule="bg-est-drift",
                    severity=severity,
                    subject=f"{record.get('run_id', '?')}:{point['label']}",
                    message=(
                        f"Eq. 2 estimation error max |bg_est - bg_true| = "
                        f"{max_abs:.3g}s (estimator is exact in this "
                        f"simulator; window accounting has drifted)"
                    ),
                    value=max_abs,
                    threshold=(
                        thresholds.bg_est_error_s
                        if severity == SEV_ERROR
                        else thresholds.bg_est_warn_s
                    ),
                )
            )
    return findings


def _lb_pairs(record: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """(noLB point, LB point) pairs: identical params except balancer."""
    by_key: Dict[str, List[Mapping[str, Any]]] = {}
    for point in record.get("points", ()):
        params = point.get("params")
        if not isinstance(params, Mapping):
            continue
        rest = {k: v for k, v in params.items() if k != "balancer"}
        key = repr(sorted(rest.items()))
        by_key.setdefault(key, []).append(point)
    pairs: List[Dict[str, Any]] = []
    for group in by_key.values():
        nolb = [p for p in group if p["params"].get("balancer") in (None, "none")]
        balanced = [p for p in group if p["params"].get("balancer") not in (None, "none")]
        for base in nolb:
            for lb in balanced:
                pairs.append({"nolb": base, "lb": lb})
    return pairs


def check_lb_benefit(record: Mapping[str, Any]) -> List[Finding]:
    """The Fig. 2 directional claim inside one run (warning-level).

    Only interfered pairs are judged — without a background job there is
    nothing for Algorithm 1 to win back, and LB overhead makes the
    balanced run legitimately slower.
    """
    findings: List[Finding] = []
    for pair in _lb_pairs(record):
        if not pair["nolb"]["params"].get("bg"):
            continue
        t_nolb = float(pair["nolb"]["summary"]["app_time"])
        t_lb = float(pair["lb"]["summary"]["app_time"])
        if t_lb > t_nolb:
            ratio = t_lb / t_nolb if t_nolb else float("inf")
            findings.append(
                Finding(
                    rule="lb-no-benefit",
                    severity=SEV_WARNING,
                    subject=(
                        f"{record.get('run_id', '?')}:{pair['lb']['label']}"
                    ),
                    message=(
                        f"interfered LB run ({t_lb:.6f}s) did not beat its "
                        f"matched noLB run ({t_nolb:.6f}s, "
                        f"{(ratio - 1.0) * 100.0:.1f}% slower) — expected "
                        f"at paper scale; routine for tiny smoke points"
                    ),
                    value=ratio,
                    threshold=1.0,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# cross-run rules
# ---------------------------------------------------------------------------


def _history_values(
    history: Sequence[Mapping[str, Any]], label: str, params: Mapping[str, Any],
    field: str,
) -> List[float]:
    """``field`` across prior runs of the *identical* point."""
    values: List[float] = []
    for past in history:
        for point in past.get("points", ()):
            if point.get("label") != label:
                continue
            if point.get("params") != params:
                continue
            value = point.get("summary", {}).get(field)
            if isinstance(value, (int, float)):
                values.append(float(value))
    return values


def check_history_outliers(
    record: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]],
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> List[Finding]:
    """Timing-penalty outliers and migration spikes vs registry history."""
    findings: List[Finding] = []
    if len(history) < thresholds.min_history:
        return findings
    for point in record.get("points", ()):
        label = point.get("label")
        params = point.get("params")
        summary = point.get("summary", {})
        if not label or not isinstance(params, Mapping):
            continue

        past_times = _history_values(history, label, params, "app_time")
        app_time = summary.get("app_time")
        if past_times and isinstance(app_time, (int, float)):
            median = _median(past_times)
            if median > 0:
                ratio = float(app_time) / median
                severity = _severity(
                    ratio, thresholds.penalty_warn, thresholds.penalty_error
                )
                if severity is not None:
                    findings.append(
                        Finding(
                            rule="penalty-outlier",
                            severity=severity,
                            subject=f"{record.get('run_id', '?')}:{label}",
                            message=(
                                f"app_time {float(app_time):.6f}s is "
                                f"{ratio:.2f}x the median of "
                                f"{len(past_times)} prior run(s) "
                                f"({median:.6f}s)"
                            ),
                            value=ratio,
                            threshold=(
                                thresholds.penalty_error
                                if severity == SEV_ERROR
                                else thresholds.penalty_warn
                            ),
                        )
                    )

        past_migs = _history_values(
            history, label, params, "total_migrations"
        )
        migrations = summary.get("total_migrations")
        if past_migs and isinstance(migrations, (int, float)):
            median = _median(past_migs)
            if (
                migrations >= thresholds.migration_min
                and median >= 0
                and migrations > median
            ):
                ratio = (
                    float(migrations) / median if median > 0 else float("inf")
                )
                severity = _severity(
                    ratio, thresholds.migration_warn, thresholds.migration_error
                )
                if severity is not None:
                    findings.append(
                        Finding(
                            rule="migration-spike",
                            severity=severity,
                            subject=f"{record.get('run_id', '?')}:{label}",
                            message=(
                                f"{int(migrations)} migrations vs a history "
                                f"median of {median:.1f} across "
                                f"{len(past_migs)} prior run(s) — balancer "
                                f"churn"
                            ),
                            value=ratio,
                            threshold=(
                                thresholds.migration_error
                                if severity == SEV_ERROR
                                else thresholds.migration_warn
                            ),
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# time-ledger rules
# ---------------------------------------------------------------------------


def _ledger_fraction_history(
    history: Sequence[Mapping[str, Any]],
    label: str,
    params: Mapping[str, Any],
    bucket: str,
) -> List[float]:
    """One ledger bucket's wall fraction across prior identical points."""
    values: List[float] = []
    for past in history:
        for point in past.get("points", ()):
            if point.get("label") != label or point.get("params") != params:
                continue
            ledger = point.get("ledger")
            if not isinstance(ledger, Mapping):
                continue
            value = ledger.get("fractions", {}).get(bucket)
            if isinstance(value, (int, float)):
                values.append(float(value))
    return values


def check_ledger(
    record: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]] = (),
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> List[Finding]:
    """Time-attribution rules over points carrying ledger summaries.

    Points recorded without ``sweep --ledger`` carry no ledger block and
    produce no findings. Conservation is judged per point (an exact
    invariant — any violation is an error); interference is judged
    against the in-run compute time; the overhead and idle rules need
    registry history of the identical point, like
    :func:`check_history_outliers`.
    """
    findings: List[Finding] = []
    run_id = record.get("run_id", "?")
    enough_history = len(history) >= thresholds.min_history
    for point in record.get("points", ()):
        ledger = point.get("ledger")
        if not isinstance(ledger, Mapping):
            continue
        label = point.get("label", "?")
        subject = f"{run_id}:{label}"

        if not ledger.get("conserved", False):
            findings.append(
                Finding(
                    rule="ledger-not-conserved",
                    severity=SEV_ERROR,
                    subject=subject,
                    message=(
                        f"time ledger does not conserve: residual "
                        f"{ledger.get('residual_s')}s out of "
                        f"wall x cores = "
                        f"{ledger.get('wall_s')}s x "
                        f"{len(ledger.get('cores', ()))} — the attribution "
                        f"accounting itself is broken"
                    ),
                    value=ledger.get("residual_s"),
                    threshold=0.0,
                )
            )

        totals = ledger.get("totals", {})
        compute = totals.get("compute")
        stolen = totals.get("stolen")
        if (
            isinstance(compute, (int, float))
            and isinstance(stolen, (int, float))
            and compute > 0
        ):
            ratio = float(stolen) / float(compute)
            severity = _severity(
                ratio,
                thresholds.interference_warn,
                thresholds.interference_error,
            )
            if severity is not None:
                findings.append(
                    Finding(
                        rule="interference-dominated",
                        severity=severity,
                        subject=subject,
                        message=(
                            f"co-runners stole {float(stolen):.6f} core-s "
                            f"against {float(compute):.6f} core-s of app "
                            f"compute ({ratio:.2f}x) — interference "
                            f"dominates this point"
                        ),
                        value=ratio,
                        threshold=(
                            thresholds.interference_error
                            if severity == SEV_ERROR
                            else thresholds.interference_warn
                        ),
                    )
                )

        if not enough_history:
            continue
        params = point.get("params")
        if not isinstance(params, Mapping):
            continue
        fractions = ledger.get("fractions", {})
        for bucket, rule, warn, error, floor, story in (
            (
                "overhead",
                "migration-overhead-spike",
                thresholds.lb_overhead_warn,
                thresholds.lb_overhead_error,
                thresholds.lb_overhead_min,
                "the balancer pays more than it used to for the same "
                "scenario",
            ),
            (
                "idle",
                "idle-regression",
                thresholds.idle_warn,
                thresholds.idle_error,
                thresholds.idle_min,
                "load imbalance is creeping back in",
            ),
        ):
            value = fractions.get(bucket)
            if not isinstance(value, (int, float)) or value < floor:
                continue
            past = _ledger_fraction_history(
                history, label, params, bucket
            )
            if not past:
                continue
            median = _median(past)
            if median <= 0:
                continue
            ratio = float(value) / median
            severity = _severity(ratio, warn, error)
            if severity is not None:
                findings.append(
                    Finding(
                        rule=rule,
                        severity=severity,
                        subject=subject,
                        message=(
                            f"{bucket} wall fraction {float(value):.4f} is "
                            f"{ratio:.2f}x the median of {len(past)} prior "
                            f"run(s) ({median:.4f}) — {story}"
                        ),
                        value=ratio,
                        threshold=error if severity == SEV_ERROR else warn,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# lineage rules
# ---------------------------------------------------------------------------


def _lineage_efficiency_history(
    history: Sequence[Mapping[str, Any]],
    label: str,
    params: Mapping[str, Any],
) -> List[float]:
    """Run-level LB efficiency across prior identical lineaged points."""
    values: List[float] = []
    for past in history:
        for point in past.get("points", ()):
            if point.get("label") != label or point.get("params") != params:
                continue
            lineage = point.get("lineage")
            if not isinstance(lineage, Mapping):
                continue
            value = lineage.get("run", {}).get("efficiency")
            if isinstance(value, (int, float)):
                values.append(float(value))
    return values


def check_lineage(
    record: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]] = (),
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> List[Finding]:
    """Chare-lineage rules over points carrying lineage payloads.

    Points recorded without ``sweep --lineage`` carry no payload and
    produce no findings. Thrashing is judged inside one run (a chare
    bounced more than K times while the steps that moved it recovered
    nothing); the efficiency rule needs registry history of the
    identical point, like :func:`check_history_outliers`.
    """
    findings: List[Finding] = []
    run_id = record.get("run_id", "?")
    enough_history = len(history) >= thresholds.min_history
    for point in record.get("points", ()):
        lineage = point.get("lineage")
        if not isinstance(lineage, Mapping):
            continue
        label = point.get("label", "?")
        subject = f"{run_id}:{label}"

        moved: Dict[str, int] = {}
        recovered: Dict[str, float] = {}
        for step in lineage.get("steps", ()):
            gain = step.get("recovered_s")
            for m in step.get("migrations", ()):
                chare = str(m.get("chare"))
                moved[chare] = moved.get(chare, 0) + 1
                if isinstance(gain, (int, float)):
                    recovered[chare] = recovered.get(chare, 0.0) + float(gain)
        for chare, count in sorted(moved.items()):
            if count <= thresholds.thrash_migrations:
                continue
            if recovered.get(chare, 0.0) > 0.0:
                continue
            findings.append(
                Finding(
                    rule="thrashing-chare",
                    severity=SEV_WARNING,
                    subject=f"{subject}:{chare}",
                    message=(
                        f"{chare} migrated {count} times while the LB "
                        f"steps that moved it recovered "
                        f"{recovered.get(chare, 0.0):.6f} core-s — pure "
                        f"churn; every move paid cost for no imbalance "
                        f"recovered"
                    ),
                    value=float(count),
                    threshold=float(thresholds.thrash_migrations),
                )
            )

        if not enough_history:
            continue
        params = point.get("params")
        if not isinstance(params, Mapping):
            continue
        efficiency = lineage.get("run", {}).get("efficiency")
        if not isinstance(efficiency, (int, float)):
            continue
        past = _lineage_efficiency_history(history, label, params)
        if not past:
            continue
        median = _median(past)
        drop = median - float(efficiency)
        severity = _severity(
            drop,
            thresholds.efficiency_drop_warn,
            thresholds.efficiency_drop_error,
        )
        if severity is not None:
            findings.append(
                Finding(
                    rule="imbalance-unrecovered",
                    severity=severity,
                    subject=subject,
                    message=(
                        f"run LB efficiency {float(efficiency):.2f} is "
                        f"{drop:.2f} below the median of {len(past)} prior "
                        f"run(s) ({median:.2f}) — the balancer recovers "
                        f"less of the achievable imbalance than it used to"
                    ),
                    value=drop,
                    threshold=(
                        thresholds.efficiency_drop_error
                        if severity == SEV_ERROR
                        else thresholds.efficiency_drop_warn
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def check_run(
    record: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]] = (),
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> List[Finding]:
    """Every per-run and cross-run rule applied to one sweep record."""
    findings: List[Finding] = []
    findings.extend(check_estimation_drift(record, thresholds))
    findings.extend(check_lb_benefit(record))
    findings.extend(check_history_outliers(record, history, thresholds))
    findings.extend(check_ledger(record, history, thresholds))
    findings.extend(check_lineage(record, history, thresholds))
    findings.sort(key=lambda f: (-_SEV_ORDER[f.severity], f.rule, f.subject))
    return findings


def max_severity(findings: Sequence[Finding]) -> Optional[str]:
    """The worst severity present, or None for a clean bill."""
    if not findings:
        return None
    return max(findings, key=lambda f: _SEV_ORDER[f.severity]).severity


def has_errors(findings: Sequence[Finding]) -> bool:
    return any(f.severity == SEV_ERROR for f in findings)
