"""Telemetry: the LB decision audit trail.

The simulator computes every quantity the paper's argument rests on — the
Eq. (2) background-load estimate, the ε band around ``T_avg``, Algorithm
1's per-step migration decisions. :class:`~repro.telemetry.audit.AuditTrail`
surfaces them: one structured record per LB step with per-core loads,
estimated vs. true O_p, thresholds, and every candidate migration with
its accept/reject reason.

An :class:`AuditTrail` is handed to
:class:`~repro.runtime.runtime.Runtime` or
:func:`~repro.experiments.runner.run_scenario` (``audit=...``); the
runtime attaches it to the balancer (base-class hook) and commits each
step with execution context. ``audit=None`` (the default) keeps every
hot path on the no-op branch and produces bit-identical results — the
audit is strictly observational.
"""

from __future__ import annotations

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

__all__ = [
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
