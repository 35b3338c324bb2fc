"""Telemetry: metrics registry + LB decision audit trail.

The simulator computes every quantity the paper's argument rests on — the
Eq. (2) background-load estimate, the ε band around ``T_avg``, Algorithm
1's per-step migration decisions — but (before this subsystem) surfaced
none of it. :class:`Telemetry` bundles the two sinks that fix that:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges
  and fixed-bucket histograms, allocation-free when disabled;
* :class:`~repro.telemetry.audit.AuditTrail` — one structured record per
  LB step: per-core loads, estimated vs. true O_p, thresholds, and every
  candidate migration with its accept/reject reason.

A :class:`Telemetry` object is handed to
:class:`~repro.runtime.runtime.Runtime` (``telemetry=...``); the runtime
attaches it to the balancer (base-class hook), commits audit steps with
execution context, and feeds run metrics. ``telemetry=None`` (the
default) keeps every hot path on the zero-cost no-op branch and produces
bit-identical results — telemetry is strictly observational.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.telemetry.audit import (
    ACCEPTED,
    AUDIT_SCHEMA,
    NOTED,
    REJECTED,
    AuditTrail,
    audit_summary,
    read_audit_jsonl,
    write_audit_jsonl,
    write_json_artifact,
)
from repro.telemetry.registry import (
    DEFAULT_DURATION_BUCKETS_S,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_REGISTRY",
    "DEFAULT_DURATION_BUCKETS_S",
    "AuditTrail",
    "audit_summary",
    "read_audit_jsonl",
    "write_audit_jsonl",
    "write_json_artifact",
    "AUDIT_SCHEMA",
    "ACCEPTED",
    "REJECTED",
    "NOTED",
]


class Telemetry:
    """One run's telemetry sinks: metrics + audit trail.

    Parameters
    ----------
    metrics:
        Registry to feed (default: a fresh enabled one).
    audit:
        Audit trail to feed (default: a fresh one).

    Notes
    -----
    The object doubles as the balancer-side audit sink: the base
    balancer's :meth:`~repro.core.balancer.LoadBalancer.balance` calls
    :meth:`on_step` with the decision. Audit records carry exclusively
    simulated (deterministic) quantities.
    """

    def __init__(
        self,
        *,
        metrics: Optional[MetricsRegistry] = None,
        audit: Optional[AuditTrail] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.audit = audit if audit is not None else AuditTrail()

    # ------------------------------------------------------------------
    # balancer sink protocol
    # ------------------------------------------------------------------
    def on_step(
        self,
        *,
        strategy: str,
        view: Any,
        migrations: Sequence[Any],
        candidates: Sequence[Dict[str, Any]],
        t_avg: float,
        epsilon_s: Optional[float],
    ) -> None:
        self.audit.on_step(
            strategy=strategy,
            view=view,
            migrations=migrations,
            candidates=candidates,
            t_avg=t_avg,
            epsilon_s=epsilon_s,
        )

    # ------------------------------------------------------------------
    # runtime side
    # ------------------------------------------------------------------
    def commit_step(
        self,
        *,
        time: float,
        iteration: int,
        bg_true: Dict[int, float],
        migration_cost_s: float,
        decision_overhead_s: float,
    ) -> None:
        """Fill the pending audit step with runtime execution context."""
        self.audit.commit_step(
            time=time,
            iteration=iteration,
            bg_true=bg_true,
            migration_cost_s=migration_cost_s,
            decision_overhead_s=decision_overhead_s,
        )

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic audit summary (see :func:`audit_summary`)."""
        return audit_summary(self.audit.records)
