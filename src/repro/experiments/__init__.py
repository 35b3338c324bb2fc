"""Experiment harness: scenarios, runs, penalties, and figure generators.

This package turns the library into the paper's evaluation:

* :mod:`repro.experiments.scenario` — declarative run descriptions
  (application, core count, background job, balancer, network).
* :mod:`repro.experiments.runner` — execute a scenario on a fresh
  simulated cluster; returns timings, energy and traces.
* :mod:`repro.experiments.penalty` — the paper's derived quantities:
  timing penalty % and normalised energy overhead %.
* :mod:`repro.experiments.figures` — one generator per paper figure
  (``fig1`` … ``fig4``) plus the headline ≥5 %-reduction check; each
  returns structured data and a formatted text table.
* :mod:`repro.experiments.tables` — plain-text table rendering.
* :mod:`repro.experiments.sweep` — the scenario vocabulary (the paper's
  applications, core counts and background job) and declarative
  scenario sweeps run in parallel over a process pool, with per-point
  summaries.
* :mod:`repro.experiments.cache` — on-disk result cache keyed by a
  content hash of the scenario parameters + a code fingerprint.
* :mod:`repro.experiments.progress` — structured (JSON-lines) sweep
  progress events and aggregate metrics.
* :mod:`repro.experiments.sweep_presets` — the paper's sweeps (Figure
  2/4 matrix, ablations) expressed as sweep specs.
"""

from repro.experiments.scenario import BackgroundSpec, Scenario
from repro.experiments.runner import ExperimentResult, run_scenario
from repro.experiments.penalty import percent_increase
from repro.experiments.figures import (
    Fig2Row,
    Fig4Row,
    fig1,
    fig2,
    fig3,
    fig4,
    headline_reductions,
)
from repro.experiments.repeat import RepeatedCase, RunStatistics, repeat_case, summarize
from repro.experiments.tables import format_table
from repro.experiments.cache import ResultCache, code_fingerprint, point_key
from repro.experiments.progress import EventLog, SweepMetrics
from repro.experiments.sweep import (
    PAPER_CORE_COUNTS,
    ScenarioSummary,
    SweepResult,
    SweepSpec,
    build_scenario,
    paper_app,
    paper_app_names,
    run_point,
    run_sweep,
)

__all__ = [
    "BackgroundSpec",
    "Scenario",
    "ExperimentResult",
    "run_scenario",
    "percent_increase",
    "Fig2Row",
    "Fig4Row",
    "PAPER_CORE_COUNTS",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "headline_reductions",
    "paper_app",
    "paper_app_names",
    "format_table",
    "RepeatedCase",
    "RunStatistics",
    "repeat_case",
    "summarize",
    "ResultCache",
    "code_fingerprint",
    "point_key",
    "EventLog",
    "SweepMetrics",
    "ScenarioSummary",
    "SweepResult",
    "SweepSpec",
    "build_scenario",
    "run_point",
    "run_sweep",
]
