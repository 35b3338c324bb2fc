"""Parallel scenario-sweep engine.

Every figure and ablation in this reproduction is, at heart, a sweep:
run :func:`~repro.experiments.runner.run_scenario` over a grid of
scenario parameters and tabulate summaries. This module makes that a
first-class, parallel, cached operation:

* :class:`SweepSpec` — a **declarative** sweep: a ``base`` parameter
  dict, cartesian ``axes`` (field -> list of values), and/or explicit
  ``points``. Specs are plain JSON-able data (:meth:`SweepSpec.from_file`
  loads one from disk), so sweeps can be versioned and shared.
* :func:`run_point` — execute one normalised parameter dict on a fresh
  simulated cluster and reduce it to a :class:`ScenarioSummary` (plain
  scalars — picklable, JSON-able, comparable bit-for-bit).
* :func:`run_sweep` — fan points out over a process pool
  (``workers > 1``) or run them inline (``workers = 1``); either way the
  per-point summaries are **identical**, because each point is a pure
  function of its parameters (fresh engine, fresh cluster, fresh
  balancer, seed threaded explicitly). An optional
  :class:`~repro.experiments.cache.ResultCache` makes a second identical
  run a pure cache hit.

Scenario parameter vocabulary (all JSON scalars; see
:data:`PARAM_DEFAULTS` for defaults):

==================  =====================================================
``app``             ``jacobi2d`` / ``wave2d`` / ``mol3d`` / ``bg`` (the
                    paper's 2-core background Wave2D, run as the app)
``scale``           problem-size multiplier (1.0 = paper scale)
``cores``           application cores
``iterations``      application iterations
``seed``            run-to-run variation seed; the string ``"auto"``
                    derives a per-point seed from the point's content
``balancer``        ``none`` / ``refine-vm`` / ``refine`` / ``greedy`` /
                    ``greedy-aware``
``epsilon``         Eq. (3) slack for the refinement balancers
``lb_period``       LB cadence in iterations
``decision_overhead_s``  per-step strategy cost charged by the policy
``bg``              add the paper's 2-core interfering Wave2D on cores
                    0-1, sized to outlast the run
``bg_weight``       OS share weight of the background job (null = the
                    paper's per-app default)
``bg_overlap``      background duration as a multiple of the estimated
                    app duration (null = ``1.2 * (1 + weight)``)
``cores_per_node``  node width (paper testbed: 4)
==================  =====================================================
"""

from __future__ import annotations

import itertools
import math
import os
import re
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only (no runtime import)
    from repro.obs.registry import RunRegistry

import json

from repro.apps import Jacobi2D, Mol3D, Wave2D
from repro.apps.base import AppModel
from repro.core import GreedyLB, RefineLB, RefineVMInterferenceLB
from repro.core.balancer import LoadBalancer
from repro.core.policies import LBPolicy
from repro.experiments.cache import (
    ResultCache,
    canonical_json,
    code_fingerprint,
    point_key,
)
from repro.experiments.progress import EventLog, SweepMetrics
from repro.experiments.runner import BACKENDS, ExperimentResult, run_scenario
from repro.experiments.scenario import BackgroundSpec, Scenario
from repro.experiments.tables import format_table
from repro.projections.export import write_chrome_trace
from repro.runtime.tracing import TraceLog
from repro.telemetry import AuditTrail, audit_summary, write_audit_jsonl
from repro.util import check_positive, derive_seed, get_logger, left_sum

__all__ = [
    "PAPER_CORE_COUNTS",
    "paper_app_names",
    "paper_app",
    "PARAM_DEFAULTS",
    "normalize_params",
    "build_scenario",
    "background_job_iterations",
    "background_iterations",
    "ScenarioSummary",
    "summarize_result",
    "run_point_probed",
    "run_point",
    "run_point_audited",
    "run_point_ledgered",
    "run_point_lineaged",
    "run_shard",
    "SweepPoint",
    "SweepSpec",
    "PointResult",
    "SweepResult",
    "run_sweep",
]

_log = get_logger(__name__)
_T = TypeVar("_T")

#: Core counts swept in Figure 2/4. The testbed allocates whole 4-core
#: nodes, topping out at 8 nodes = 32 cores; with the background job
#: pinned to 2 cores, 8 is the smallest allocation where shedding the two
#: interfered cores can beat no-LB at all (below that, losing 2 of P
#: cores costs as much as the interference itself).
PAPER_CORE_COUNTS: Tuple[int, ...] = (8, 16, 24, 32)

#: OS share weight of the background job per application scenario. The
#: paper: "we saw a significant preference to the background load in the
#: case of Mol3D" — reproduced as a larger weight for that scenario.
_BG_WEIGHT: Dict[str, float] = {"jacobi2d": 1.0, "wave2d": 1.0, "mol3d": 4.0}


def paper_app_names() -> Tuple[str, ...]:
    """The three evaluated applications, figure order."""
    return ("jacobi2d", "wave2d", "mol3d")


def paper_app(name: str, scale: float = 1.0, *, seed: int = 0) -> AppModel:
    """Build one of the paper's applications at a size multiplier.

    ``scale=1.0`` is the full evaluation size; tests use ~0.1 for speed.
    ``seed`` varies the run-to-run sources (stencil jitter phases,
    Mol3D's density realisation) — the paper's "three similar runs" are
    three seeds (see :mod:`repro.experiments.repeat`).
    """
    check_positive("scale", scale)
    if name == "jacobi2d":
        return Jacobi2D(grid_size=max(int(4096 * scale), 64), jitter_seed=seed)
    if name == "wave2d":
        return Wave2D(grid_size=max(int(4096 * scale), 64), jitter_seed=seed)
    if name == "mol3d":
        return Mol3D(
            total_particles=max(int(48_000 * scale), 512), seed=42 + seed
        )
    raise ValueError(f"unknown paper app {name!r}; known: {paper_app_names()}")


def _bg_model(scale: float) -> Wave2D:
    """The paper's interfering job: a 2-core Wave2D, scaled with the apps."""
    return Wave2D.background(grid_size=max(int(1448 * scale), 32))


def _estimate_iteration_time(model: AppModel, num_cores: int) -> float:
    """Rough per-iteration wall time: total chare work / cores."""
    array = model.build_array(num_cores)
    total = left_sum(c.work(0) for c in array)
    return total / num_cores

#: Default value of every scenario parameter (the normalised form always
#: carries every key, so cache keys never shift when defaults are spelled
#: out explicitly).
PARAM_DEFAULTS: Dict[str, Any] = {
    "app": "jacobi2d",
    "scale": 1.0,
    "cores": 8,
    "iterations": 50,
    "seed": 0,
    "balancer": "none",
    "epsilon": 0.05,
    "lb_period": 5,
    "decision_overhead_s": 2e-4,
    "bg": False,
    "bg_weight": None,
    "bg_overlap": None,
    "cores_per_node": 4,
}

_APP_NAMES = ("jacobi2d", "wave2d", "mol3d", "bg")
_BALANCER_NAMES = ("none", "refine-vm", "refine", "greedy", "greedy-aware")


def normalize_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonical, fully defaulted, validated form of a point's params.

    The result is what gets content-hashed for the cache key and what
    :func:`build_scenario` consumes, so two spellings of the same
    scenario (defaults implicit vs explicit) always collide on the same
    key. ``seed="auto"`` is resolved here to a content-derived seed.
    """
    unknown = set(params) - set(PARAM_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown scenario parameter(s) {sorted(unknown)}; "
            f"known: {sorted(PARAM_DEFAULTS)}"
        )
    p: Dict[str, Any] = dict(PARAM_DEFAULTS)
    p.update(params)

    if p["balancer"] is None:
        p["balancer"] = "none"
    if p["app"] not in _APP_NAMES:
        raise ValueError(f"unknown app {p['app']!r}; known: {_APP_NAMES}")
    if p["balancer"] not in _BALANCER_NAMES:
        raise ValueError(
            f"unknown balancer {p['balancer']!r}; known: {_BALANCER_NAMES}"
        )
    p["scale"] = float(p["scale"])
    p["cores"] = int(p["cores"])
    p["iterations"] = int(p["iterations"])
    p["epsilon"] = float(p["epsilon"])
    p["lb_period"] = int(p["lb_period"])
    p["decision_overhead_s"] = float(p["decision_overhead_s"])
    p["bg"] = bool(p["bg"])
    p["bg_weight"] = None if p["bg_weight"] is None else float(p["bg_weight"])
    p["bg_overlap"] = None if p["bg_overlap"] is None else float(p["bg_overlap"])
    p["cores_per_node"] = int(p["cores_per_node"])
    if p["seed"] == "auto":
        content = dict(p)
        del content["seed"]
        p["seed"] = derive_seed(0, canonical_json(content))
    else:
        p["seed"] = int(p["seed"])
    return dict(sorted(p.items()))


def _make_balancer(name: str, epsilon: float) -> Optional[LoadBalancer]:
    if name == "none":
        return None
    if name == "refine-vm":
        return RefineVMInterferenceLB(epsilon)
    if name == "refine":
        return RefineLB(epsilon)
    if name == "greedy":
        return GreedyLB()
    if name == "greedy-aware":
        return GreedyLB(aware=True)
    raise ValueError(f"unknown balancer {name!r}")  # pragma: no cover


def _app_model(name: str, scale: float, seed: int) -> AppModel:
    if name == "bg":
        return _bg_model(scale)
    return paper_app(name, scale, seed=seed)


def _bg_weight(p: Mapping[str, Any]) -> float:
    """A normalised point's background share weight (null = per-app default)."""
    if p["bg_weight"] is not None:
        return p["bg_weight"]
    return _BG_WEIGHT.get(p["app"], 1.0)


def background_job_iterations(
    model: AppModel,
    cores: int,
    iterations: int,
    bg: AppModel,
    *,
    weight: float,
    overlap: Optional[float] = None,
) -> int:
    """Iterations of the 2-core background job ``bg`` next to ``model``.

    The one sizing rule for the paper's interfering job: alone, it must
    last ``overlap`` x the application's estimated interference-free
    duration (``iterations`` on ``cores``), rounded up. The default
    overlap is ``1.2 * (1 + weight)``: an unbalanced application
    stretches by about ``1 + weight``, and the background job must keep
    interfering for that whole run (the paper started both jobs together
    and kept the background load present throughout).
    """
    if overlap is None:
        overlap = 1.2 * (1.0 + weight)
    app_est = _estimate_iteration_time(model, cores) * iterations
    bg_iter_est = _estimate_iteration_time(bg, 2)
    return max(int(math.ceil(overlap * app_est / bg_iter_est)), 1)


#: canonical params JSON -> background iteration count (pure function)
_BG_ITERATIONS_MEMO: Dict[str, int] = {}


def background_iterations(params: Mapping[str, Any]) -> int:
    """Iterations of the 2-core background job for a ``bg=True`` point.

    :func:`background_job_iterations` for the point's application, core
    count, iterations, ``bg_weight`` and ``bg_overlap``. Deterministic in
    the point's parameters, which keeps sweep points pure and lets the
    Fig. 2 preset compute the matching ``bg``-alone run up front. That
    determinism also makes the result memoisable: the estimate builds
    throwaway model instances, which would otherwise dominate repeated
    ``build_scenario`` calls on the same point.
    """
    p = normalize_params(dict(params))
    memo_key = canonical_json(p)
    hit = _BG_ITERATIONS_MEMO.get(memo_key)
    if hit is not None:
        return hit
    n = background_job_iterations(
        _app_model(p["app"], p["scale"], p["seed"]),
        p["cores"],
        p["iterations"],
        _bg_model(p["scale"]),
        weight=_bg_weight(p),
        overlap=p["bg_overlap"],
    )
    if len(_BG_ITERATIONS_MEMO) >= 4096:  # unbounded-growth backstop
        _BG_ITERATIONS_MEMO.clear()
    _BG_ITERATIONS_MEMO[memo_key] = n
    return n


def build_scenario(params: Mapping[str, Any]) -> Scenario:
    """Materialise a normalised parameter dict as a fresh :class:`Scenario`.

    Every call builds new model/balancer/policy objects, so concurrent
    and back-to-back runs can never share mutable state.
    """
    p = normalize_params(dict(params))
    model = _app_model(p["app"], p["scale"], p["seed"])
    balancer = _make_balancer(p["balancer"], p["epsilon"])
    policy = LBPolicy(
        period_iterations=p["lb_period"],
        decision_overhead_s=p["decision_overhead_s"],
    )
    bg = None
    if p["bg"]:
        bg = BackgroundSpec(
            model=_bg_model(p["scale"]),
            core_ids=(0, 1),
            iterations=background_iterations(p),
            weight=_bg_weight(p),
        )
    return Scenario(
        app=model,
        num_cores=p["cores"],
        iterations=p["iterations"],
        balancer=balancer,
        policy=policy,
        bg=bg,
        cores_per_node=p["cores_per_node"],
    )


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSummary:
    """The sweep-facing reduction of one :class:`ExperimentResult`.

    Plain scalars only: picklable across worker processes, JSON-able for
    the on-disk cache, and comparable with ``==`` — which is what lets
    the engine guarantee bit-identical results between serial, parallel,
    and cached execution of the same point.
    """

    app_time: float
    bg_time: Optional[float]
    energy_j: float
    avg_power_w: float
    busy_core_seconds: float
    iterations: int
    lb_steps: int
    total_migrations: int
    total_migration_cost_s: float
    total_task_cpu_s: float
    final_mapping_digest: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app_time": self.app_time,
            "bg_time": self.bg_time,
            "energy_j": self.energy_j,
            "avg_power_w": self.avg_power_w,
            "busy_core_seconds": self.busy_core_seconds,
            "iterations": self.iterations,
            "lb_steps": self.lb_steps,
            "total_migrations": self.total_migrations,
            "total_migration_cost_s": self.total_migration_cost_s,
            "total_task_cpu_s": self.total_task_cpu_s,
            "final_mapping_digest": self.final_mapping_digest,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSummary":
        return cls(
            app_time=float(data["app_time"]),
            bg_time=None if data["bg_time"] is None else float(data["bg_time"]),
            energy_j=float(data["energy_j"]),
            avg_power_w=float(data["avg_power_w"]),
            busy_core_seconds=float(data["busy_core_seconds"]),
            iterations=int(data["iterations"]),
            lb_steps=int(data["lb_steps"]),
            total_migrations=int(data["total_migrations"]),
            total_migration_cost_s=float(data["total_migration_cost_s"]),
            total_task_cpu_s=float(data["total_task_cpu_s"]),
            final_mapping_digest=str(data["final_mapping_digest"]),
        )


def summarize_result(result: ExperimentResult) -> ScenarioSummary:
    """Reduce a full :class:`ExperimentResult` to its scalar summary."""
    import hashlib

    mapping_blob = canonical_json(
        sorted(
            ([name, index], core)
            for (name, index), core in result.final_mapping.items()
        )
    )
    return ScenarioSummary(
        app_time=float(result.app_time),
        bg_time=None if result.bg_time is None else float(result.bg_time),
        energy_j=float(result.energy.energy_j),
        avg_power_w=float(result.energy.average_power_w),
        busy_core_seconds=float(result.energy.busy_core_seconds),
        iterations=int(result.app.iterations),
        lb_steps=int(result.app.lb_steps),
        total_migrations=int(result.app.total_migrations),
        total_migration_cost_s=float(result.app.total_migration_cost_s),
        total_task_cpu_s=float(result.app.total_task_cpu_s),
        final_mapping_digest=hashlib.sha256(mapping_blob.encode()).hexdigest()[:16],
    )


def run_point_probed(
    params: Mapping[str, Any],
    probes: Sequence[str],
    *,
    backend: str = "fast",
) -> Tuple[ScenarioSummary, Dict[str, Any], Optional[TraceLog]]:
    """Execute one point with the requested probes attached.

    A probe is one of ``"audit"``, ``"ledger"`` and ``"lineage"``.
    Returns ``(summary, payloads, trace)``. ``payloads`` maps
    each requested probe to its JSON-safe payload, which a sweep caches
    in a payload file named after the probe, beside the point's entry:

    * ``audit`` — ``{"summary", "records"}``: the LB audit trail (see
      :func:`repro.telemetry.audit_summary`);
    * ``ledger`` — :meth:`repro.obs.ledger.TimeLedger.summary`;
    * ``lineage`` — :meth:`repro.obs.lineage.LineageRecorder.payload`,
      with each LB step joined against the run's audit trail.

    Only what the probes need is attached: a
    :class:`~repro.telemetry.AuditTrail` for audit or lineage, per-task
    tracing for audit, a time ledger for ledger
    and a lineage recorder for lineage. With no probes nothing is
    attached. Every probe is strictly observational, so the summary is
    bit-identical whatever the probes, and so is each payload whatever
    else rides along — which is why probes combine on one run and each
    payload can be cached and served on its own.

    ``trace`` is None unless audit is requested; it feeds the
    Chrome/Perfetto export and is never cached. Audit traces every
    task, on either backend: the fast path's trace is byte-identical to
    the event engine's.
    """
    audit = "audit" in probes
    scenario = build_scenario(params)
    trail = AuditTrail() if audit or "lineage" in probes else None
    ledger = lineage = None
    if "ledger" in probes:
        from repro.obs.ledger import TimeLedger

        ledger = TimeLedger(job="app", core_ids=scenario.app_core_ids)
    if "lineage" in probes:
        from repro.obs.lineage import LineageRecorder

        lineage = LineageRecorder(job="app", core_ids=scenario.app_core_ids)
    if audit:
        scenario = replace(scenario, tracing=True)
    result = run_scenario(
        scenario,
        backend=backend,
        audit=trail,
        ledger=ledger,
        lineage=lineage,
    )
    payloads: Dict[str, Any] = {}
    if audit:
        records = trail.records
        payloads["audit"] = {"summary": audit_summary(records), "records": records}
    if ledger is not None:
        payloads["ledger"] = ledger.summary()
    if lineage is not None:
        payloads["lineage"] = lineage.payload(audit=trail.records)
    return summarize_result(result), payloads, result.trace if audit else None


def run_point(params: Mapping[str, Any], *, backend: str = "fast") -> ScenarioSummary:
    """Execute one parameter dict hermetically and summarise it.

    ``backend`` selects the simulation backend (see
    :func:`repro.experiments.runner.run_scenario`); summaries are
    bit-identical across backends, so it never enters the cache key.
    """
    return run_point_probed(params, (), backend=backend)[0]


def run_point_audited(
    params: Mapping[str, Any], *, backend: str = "fast"
) -> Tuple[ScenarioSummary, List[Dict[str, Any]], TraceLog]:
    """``(summary, audit_records, trace)`` of an audited point."""
    summary, payloads, trace = run_point_probed(params, ("audit",), backend=backend)
    return summary, payloads["audit"]["records"], trace


def run_point_ledgered(
    params: Mapping[str, Any], *, backend: str = "fast"
) -> Tuple[ScenarioSummary, Dict[str, Any]]:
    """``(summary, ledger_summary)`` of a point run with a time ledger."""
    summary, payloads, _ = run_point_probed(params, ("ledger",), backend=backend)
    return summary, payloads["ledger"]


def run_point_lineaged(
    params: Mapping[str, Any], *, backend: str = "fast"
) -> Tuple[ScenarioSummary, Dict[str, Any]]:
    """``(summary, lineage_payload)`` of a point run with a lineage recorder."""
    summary, payloads, _ = run_point_probed(params, ("lineage",), backend=backend)
    return summary, payloads["lineage"]


def run_shard(
    shard_points: Sequence[Tuple[int, Dict[str, Any]]],
    *,
    backend: str = "fast",
    probes: Sequence[str] = (),
    worker: Optional[str] = None,
):
    """Execute an ordered shard of ``(index, params)`` pairs lazily.

    This generator is the single execution core of :func:`run_sweep`:
    the in-process serial path and the local process pool
    (:func:`_execute_shard`) both feed it the same pairs and consume the
    same ``(index, summary_dict, wall_s, worker_tag, payloads, trace)``
    tuples — which is why their summaries are bit-identical by
    construction. The last two are :func:`run_point_probed`'s outputs
    for ``probes``. Each point is simulated when its tuple is pulled, so
    callers can interleave progress events and cache writes between
    points. ``worker`` overrides the default ``pid:<n>`` provenance tag.
    """
    tag = worker if worker is not None else f"pid:{os.getpid()}"
    for index, params in shard_points:
        t0 = time.perf_counter()
        summary, payloads, trace = run_point_probed(params, probes, backend=backend)
        wall = time.perf_counter() - t0
        yield index, summary.to_dict(), wall, tag, payloads, trace


def _execute_shard(
    payload: Tuple[List[Tuple[int, Dict[str, Any]]], str, Tuple[str, ...]],
) -> List[tuple]:
    """Pool entry point: drain one shard through :func:`run_shard`."""
    shard_points, backend, probes = payload
    return list(run_shard(shard_points, backend=backend, probes=probes))


def _pool_blocks(items: Sequence[_T], workers: int) -> List[Sequence[_T]]:
    """Split ``items`` into contiguous blocks for a ``workers``-wide pool.

    Four blocks per worker let a worker that finishes early take another
    block while the rest are still busy. Block sizes differ by at most
    one, no block is empty, and the blocks concatenate back to ``items``
    in order.
    """
    count = min(len(items), 4 * workers)
    if count == 0:
        return []
    size, extra = divmod(len(items), count)
    blocks: List[Sequence[_T]] = []
    start = 0
    for b in range(count):
        end = start + size + (1 if b < extra else 0)
        blocks.append(items[start:end])
        start = end
    return blocks


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One expanded scenario of a sweep: label + canonical parameters."""

    index: int
    label: str
    params: Dict[str, Any]


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep description.

    Attributes
    ----------
    name:
        Sweep identifier (used in reports and artefact names).
    base:
        Parameters shared by every point.
    axes:
        ``field -> list of values``; the cartesian product over all axes
        is swept (ordered as given, last axis fastest).
    points:
        Explicit extra points (each a partial param dict merged over
        ``base``); appended after the grid. A point dict may carry a
        ``label`` key, which names it in reports but does not affect the
        cache key.
    """

    name: str
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, Sequence[Any]] = field(default_factory=dict)
    points: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        for axis, values in self.axes.items():
            if axis not in PARAM_DEFAULTS and axis != "label":
                raise ValueError(f"unknown sweep axis {axis!r}")
            if not list(values):
                raise ValueError(f"axis {axis!r} has no values")

    # ------------------------------------------------------------------
    def expand(self) -> List[SweepPoint]:
        """The ordered scenario list this spec describes."""
        raw: List[Dict[str, Any]] = []
        if self.axes:
            keys = list(self.axes)
            for combo in itertools.product(*(self.axes[k] for k in keys)):
                raw.append(dict(zip(keys, combo)))
        for extra in self.points:
            raw.append(dict(extra))
        if not raw:
            raw.append({})

        expanded: List[SweepPoint] = []
        seen_labels: Dict[str, int] = {}
        for i, overrides in enumerate(raw):
            label = overrides.pop("label", None)
            merged = {**self.base, **overrides}
            merged.pop("label", None)
            params = normalize_params(merged)
            if label is None:
                varying = [k for k in overrides if k in PARAM_DEFAULTS]
                label = (
                    ",".join(f"{k}={params[k]}" for k in varying)
                    or f"point{i}"
                )
            if label in seen_labels:
                seen_labels[label] += 1
                label = f"{label}#{seen_labels[label]}"
            else:
                seen_labels[label] = 0
            expanded.append(SweepPoint(index=i, label=label, params=params))
        return expanded

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": dict(self.base),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "points": [dict(p) for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        if "name" not in data:
            raise ValueError("sweep spec needs a 'name'")
        unknown = set(data) - {"name", "base", "axes", "points"}
        if unknown:
            raise ValueError(f"unknown sweep spec key(s) {sorted(unknown)}")
        return cls(
            name=str(data["name"]),
            base=dict(data.get("base", {})),
            axes={k: list(v) for k, v in data.get("axes", {}).items()},
            points=tuple(dict(p) for p in data.get("points", [])),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a spec from a JSON file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point.

    ``wall_s`` is the simulation wall time (0.0 for cache hits);
    ``worker`` identifies where it ran (``main``, ``pid:<n>``, or
    ``cache``). ``audit`` is the point's deterministic audit summary
    (see :func:`repro.telemetry.audit_summary`) when the sweep ran with
    ``audit_dir``, else None. ``ledger`` is the point's time-attribution
    ledger summary (see :meth:`repro.obs.ledger.TimeLedger.summary`)
    when the sweep ran with ``ledger=True``, else None. ``lineage`` is
    the point's chare-lineage payload (see
    :meth:`repro.obs.lineage.LineageRecorder.payload`) when the sweep
    ran with ``lineage=True``, else None. The three probes combine: a
    sweep run with several of them fills every requested field from one
    execution of the point, or from its cache entry and payload files.
    """

    index: int
    label: str
    params: Dict[str, Any]
    key: str
    summary: ScenarioSummary
    cached: bool
    wall_s: float
    worker: str
    audit: Optional[Dict[str, Any]] = None
    ledger: Optional[Dict[str, Any]] = None
    lineage: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep produced: ordered results + aggregate metrics."""

    spec_name: str
    results: Tuple[PointResult, ...]
    metrics: SweepMetrics

    def summaries(self) -> Dict[str, ScenarioSummary]:
        """``label -> summary`` for every point."""
        return {r.label: r.summary for r in self.results}

    def __getitem__(self, label: str) -> ScenarioSummary:
        for r in self.results:
            if r.label == label:
                return r.summary
        raise KeyError(f"no sweep point labelled {label!r}")

    def text(self) -> str:
        """Human-readable table of per-point summaries + sweep metrics."""
        rows = [
            (
                r.label,
                r.summary.app_time,
                "-" if r.summary.bg_time is None else f"{r.summary.bg_time:.3f}",
                r.summary.energy_j,
                r.summary.avg_power_w,
                r.summary.total_migrations,
                "hit" if r.cached else f"{r.wall_s:.2f}s",
            )
            for r in self.results
        ]
        table = format_table(
            ["scenario", "app time (s)", "bg time (s)", "energy (J)",
             "power (W)", "migrations", "run"],
            rows,
            title=f"sweep {self.spec_name} — {self.metrics.points} scenarios",
            float_fmt="{:.3f}",
        )
        m = self.metrics
        footer = (
            f"workers={m.workers} executed={m.executed} "
            f"cache_hits={m.cache_hits} ({100.0 * m.hit_rate:.0f}%) "
            f"elapsed={m.elapsed_s:.2f}s "
            f"utilization={100.0 * m.worker_utilization:.0f}%"
        )
        return table + "\n" + footer


def _point_slug(label: str) -> str:
    """Filesystem-safe stem for a point's audit artefacts."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-")
    return slug or "point"


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    log: Optional[EventLog] = None,
    audit_dir: Optional[Union[str, Path]] = None,
    registry: Optional["RunRegistry"] = None,
    backend: str = "fast",
    ledger: bool = False,
    lineage: bool = False,
) -> SweepResult:
    """Execute every point of ``spec``; returns ordered results + metrics.

    ``audit_dir``, ``ledger`` and ``lineage`` each request one probe
    (see :func:`run_point_probed`). Probes combine freely: every point
    runs once with all requested probes attached, each probe's payload
    rides the :class:`PointResult` and is cached in a payload file of
    its own beside the point's entry, and summaries stay bit-identical
    to an unprobed sweep. A cache hit reads the entry and only the
    requested payload files, and is served only if all of them are
    there; otherwise the point is re-executed, which rewrites its entry
    and the requested payloads and leaves other probes' payload files
    alone, so probe sweeps never evict each other's payloads.

    Parameters
    ----------
    workers:
        Process-pool width. 1 runs in-process (no pool); either way the
        per-point summaries are identical for the same spec.
    cache:
        Optional on-disk result cache; hits skip simulation entirely and
        misses are stored after running.
    log:
        Structured event sink (see :mod:`repro.experiments.progress`).
    audit_dir:
        The audit probe: every point's LB audit trail is written to
        ``<audit_dir>/<index>-<label>.jsonl`` (plus a Chrome/Perfetto
        trace with counter tracks for executed points) and its audit
        summary is carried on the :class:`PointResult`. Hits rewrite
        byte-identical JSONL from the cached records (no trace — traces
        are only produced by actual execution). Audit records contain
        only simulated quantities, so their bytes are identical across
        serial, parallel, and warm-cache runs, and on every backend
        (the fast path records the same per-task trace as the event
        engine).
    registry:
        Optional :class:`repro.obs.registry.RunRegistry`; when given the
        completed sweep is ingested as one run record (after
        ``sweep_done``) and a ``run_registered`` event carrying the new
        ``run_id`` is emitted. Ingest is strictly post-hoc — the
        per-point execution path never sees the registry.
    backend:
        Simulation backend for executed points, one of
        :data:`repro.experiments.runner.BACKENDS` (see
        :func:`repro.experiments.runner.run_scenario`). Summaries are
        bit-identical across backends, so the cache key — and therefore
        hits — are backend-independent.
    ledger:
        The ledger probe (:mod:`repro.obs.ledger`): every point's
        conservation-checked time-attribution summary rides the
        :class:`PointResult`, its own cache payload file and the registry
        record (with a sweep-level aggregate).
    lineage:
        The lineage probe (:mod:`repro.obs.lineage`): every point's
        per-chare load samples, migration residencies, per-iteration
        imbalance metrics and counterfactual LB bounds ride the
        :class:`PointResult`, its own cache payload file and the registry
        record (with a sweep-level aggregate).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    probes = tuple(
        name
        for name, on in (
            ("audit", audit_dir is not None),
            ("ledger", ledger),
            ("lineage", lineage),
        )
        if on
    )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    log = log if log is not None else EventLog()
    t_start = time.perf_counter()

    audit_path: Optional[Path] = None
    if audit_dir is not None:
        audit_path = Path(audit_dir)
        audit_path.mkdir(parents=True, exist_ok=True)

    points = spec.expand()
    fingerprint = code_fingerprint()
    keys = {p.index: point_key(p.params, fingerprint=fingerprint) for p in points}

    def audit_file(p: SweepPoint, suffix: str) -> Path:
        return audit_path / f"{p.index:03d}-{_point_slug(p.label)}{suffix}"

    def point_result(
        p: SweepPoint,
        summary: ScenarioSummary,
        wall: float,
        worker: str,
        payloads: Mapping[str, Any],
    ) -> PointResult:
        audit = payloads.get("audit")
        return PointResult(
            index=p.index,
            label=p.label,
            params=p.params,
            key=keys[p.index],
            summary=summary,
            cached=worker == "cache",
            wall_s=wall,
            worker=worker,
            audit=None if audit is None else audit["summary"],
            ledger=payloads.get("ledger"),
            lineage=payloads.get("lineage"),
        )

    outcomes: Dict[int, PointResult] = {}
    misses: List[SweepPoint] = []
    for p in points:
        hit = cache.get(keys[p.index]) if cache is not None else None
        payloads: Dict[str, Any] = {}
        if hit is not None and probes:
            # only the requested payload files are read; a point missing
            # any of them is re-executed with every requested probe
            payloads = cache.get_extras(keys[p.index], probes)
            if len(payloads) < len(probes):
                hit = None
        if hit is None:
            misses.append(p)
            continue
        if "audit" in payloads:
            write_audit_jsonl(payloads["audit"]["records"], audit_file(p, ".jsonl"))
        outcomes[p.index] = point_result(
            p, ScenarioSummary.from_dict(hit), 0.0, "cache", payloads
        )

    log.emit(
        "sweep_start",
        spec=spec.name,
        points=len(points),
        workers=workers,
        cached=len(outcomes),
    )
    for p in points:
        if p.index in outcomes:
            log.emit(
                "point_done",
                label=p.label,
                key=keys[p.index],
                cached=True,
                wall_s=0.0,
                worker="cache",
            )

    by_index = {p.index: p for p in misses}

    def finish(
        index: int,
        summary_dict: Dict[str, Any],
        wall: float,
        worker: str,
        payloads: Dict[str, Any],
        trace: Optional[TraceLog],
    ) -> None:
        """Record one :func:`run_shard` tuple: result, cache, artefacts."""
        p = by_index[index]
        summary = ScenarioSummary.from_dict(summary_dict)
        outcomes[index] = point_result(p, summary, wall, worker, payloads)
        if cache is not None:
            cache.put(keys[index], p.params, summary_dict, extras=payloads or None)
        if "audit" in payloads:
            records = payloads["audit"]["records"]
            n = write_audit_jsonl(records, audit_file(p, ".jsonl"))
            write_chrome_trace(
                trace,
                str(audit_file(p, ".trace.json")),
                job_name=p.label,
                audit=records,
            )
            _log.debug("%s: wrote %d audit records", p.label, n)
        log.emit(
            "point_done",
            label=p.label,
            key=keys[index],
            cached=False,
            wall_s=round(wall, 6),
            worker=worker,
        )

    if misses and workers == 1:
        # one lazy shard: each next() simulates one point, so the
        # point_start / point_done interleaving is unchanged
        results = run_shard(
            [(p.index, p.params) for p in misses],
            backend=backend,
            probes=probes,
            worker="main",
        )
        for p in misses:
            log.emit("point_start", label=p.label, key=keys[p.index])
            finish(*next(results))
    elif misses:
        # pool processes drain contiguous blocks of the misses through
        # the same run_shard core as the serial path
        blocks = _pool_blocks(misses, workers)
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            pending = set()
            for block in blocks:
                for p in block:
                    log.emit("point_start", label=p.label, key=keys[p.index])
                task = ([(p.index, p.params) for p in block], backend, probes)
                pending.add(pool.submit(_execute_shard, task))
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    for row in fut.result():
                        finish(*row)

    elapsed = time.perf_counter() - t_start
    executed = [r for r in outcomes.values() if not r.cached]
    executed_wall = left_sum(r.wall_s for r in executed)
    metrics = SweepMetrics(
        points=len(points),
        executed=len(executed),
        cache_hits=len(points) - len(executed),
        elapsed_s=elapsed,
        executed_wall_s=executed_wall,
        workers=workers,
        worker_utilization=(
            executed_wall / (workers * elapsed) if executed and elapsed > 0 else 0.0
        ),
    )
    log.emit("sweep_done", **metrics.to_dict())
    ordered = tuple(outcomes[p.index] for p in points)
    result = SweepResult(spec_name=spec.name, results=ordered, metrics=metrics)
    if registry is not None:
        extra: Dict[str, Any] = {}
        if ledger:
            extra["ledger"] = _ledger_aggregate(ordered)
        if lineage:
            extra["lineage"] = _lineage_aggregate(ordered)
        record = registry.ingest_sweep(
            spec,
            result,
            artifacts={"audit_dir": audit_path} if audit_path else None,
            extra=extra or None,
        )
        log.emit("run_registered", run_id=record["run_id"])
    return result


def _ledger_aggregate(results: Sequence[PointResult]) -> Dict[str, Any]:
    """Sweep-level roll-up of the per-point ledger summaries."""
    summaries = [r.ledger for r in results if r.ledger is not None]
    agg: Dict[str, Any] = {
        "points": len(summaries),
        "all_conserved": all(s["conserved"] for s in summaries),
    }
    if summaries:
        agg["mean_fractions"] = {
            b: left_sum(s["fractions"][b] for s in summaries) / len(summaries)
            for b in summaries[0]["fractions"]
        }
    return agg


def _lineage_aggregate(results: Sequence[PointResult]) -> Dict[str, Any]:
    """Sweep-level roll-up of the per-point lineage run blocks."""
    runs = [r.lineage["run"] for r in results if r.lineage is not None]
    agg: Dict[str, Any] = {
        "points": len(runs),
        "lb_steps": sum(r["lb_steps"] for r in runs),
        "migrations": sum(r["migrations"] for r in runs),
        "all_sane": all(r["sane"] for r in runs),
    }
    efficiencies = [
        r["efficiency"] for r in runs if r["efficiency"] is not None
    ]
    if efficiencies:
        agg["mean_efficiency"] = left_sum(efficiencies) / len(efficiencies)
        agg["min_efficiency"] = min(efficiencies)
    return agg
