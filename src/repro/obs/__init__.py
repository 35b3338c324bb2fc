"""Cross-run observability: registry, live monitoring, anomalies, reports.

The layers below answer per-run questions — :mod:`repro.telemetry`
records what one balancer did. This package is the cross-run layer:

* :mod:`repro.obs.registry` — every sweep run recorded forever
  (config, git SHA, seeds, env fingerprint, metrics), queryable via
  ``repro runs list/show/diff``;
* :mod:`repro.obs.watch` — live sweep monitoring over the ``schema: 1``
  progress event stream (``repro watch``, ``repro sweep --live``);
* :mod:`repro.obs.anomaly` — rule-based detectors (Eq. 2 drift, timing
  penalty outliers, migration spikes, ledger and lineage regressions)
  behind ``repro runs check``;
* :mod:`repro.obs.report` — the self-contained HTML dashboard
  (``repro report``).

All of it is strictly read-side: nothing here is imported by the
simulator or the sweep hot path.
"""

from repro.obs.anomaly import (
    DEFAULT_THRESHOLDS,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    Finding,
    Thresholds,
    check_run,
    has_errors,
    max_severity,
)
from repro.obs.registry import (
    RUN_SCHEMA,
    RunRegistry,
    default_registry_dir,
    diff_runs,
)
from repro.obs.report import build_report, render_report, write_report
from repro.obs.watch import LiveWatch, WatchRenderer, replay, watch_file

__all__ = [
    "RUN_SCHEMA",
    "RunRegistry",
    "default_registry_dir",
    "diff_runs",
    "WatchRenderer",
    "replay",
    "watch_file",
    "LiveWatch",
    "Finding",
    "Thresholds",
    "DEFAULT_THRESHOLDS",
    "SEV_INFO",
    "SEV_WARNING",
    "SEV_ERROR",
    "check_run",
    "max_severity",
    "has_errors",
    "build_report",
    "render_report",
    "write_report",
]
