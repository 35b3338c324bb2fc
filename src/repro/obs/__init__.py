"""Observability: time attribution, load lineage, the run registry, reports.

The layers below answer per-run questions — :mod:`repro.telemetry`
records what one balancer did. This package holds the probes that
explain a run and the cross-run layer that records every sweep:

* :mod:`repro.obs.ledger` — the time-attribution ledger
  (``repro sweep --ledger``, ``repro explain``);
* :mod:`repro.obs.lineage` — per-chare load lineage and counterfactual
  LB bounds (``repro sweep --lineage``, ``repro lineage``);
* :mod:`repro.obs.registry` — every sweep run recorded forever
  (config, git SHA, seeds, env fingerprint, metrics), queryable via
  ``repro runs list/show/diff``;
* :mod:`repro.obs.report` — the self-contained HTML dashboard
  (``repro report``).

The package imports nothing itself: a probe that loads
:mod:`repro.obs.ledger` or :mod:`repro.obs.lineage` does not pay for
the registry or the report. The registry and the report are strictly
read-side: nothing in the simulator imports them.
"""
