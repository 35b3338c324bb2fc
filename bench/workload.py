"""The benchmark's workloads: their inputs, one pass, and what is checked.

A *pass* runs a workload's sweep(s) once through the public sweep API
(``run_sweep`` with a ``ResultCache``) and returns one digest per point
result plus its times in reference seconds (``speed.py``). A cold pass starts from an empty cache; a
warm pass re-runs against the cache the last cold pass filled.

Workloads (see README.md for why each was chosen):

* ``fig2`` — the paper's Figure 2/4 matrix, 60 points, default backend.
* ``ablation`` — ABL-EPS, ABL-PERIOD and ABL-AWARE as one 16-point sweep,
  default backend (the fast path).
* ``events`` — the same 16 points on the reference event engine.
* ``observed`` — ABL-PERIOD's 5 points swept with the ledger, then the
  lineage recorder, then the audit trail, on one cache.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments import sweep as sweep_module
from repro.experiments.cache import ResultCache, canonical_json
from repro.experiments.progress import EventLog
from repro.experiments.sweep import (
    PointResult,
    SweepSpec,
    run_point,
    run_point_ledgered,
    run_point_lineaged,
)
from repro.experiments.sweep_presets import (
    ablation_epsilon_spec,
    ablation_period_spec,
    fig2_sweep_spec,
)
from speed import SpeedProbe

#: ABL-AWARE's balancer line-up, swept over the ABL base
AWARE_BALANCERS = ("none", "refine", "greedy", "greedy-aware")


def ablation_spec(seed: int) -> SweepSpec:
    """ABL-EPS (7 ε), ABL-PERIOD (5 periods) and ABL-AWARE (4 balancers)."""
    eps = ablation_epsilon_spec(seed=seed)
    period = ablation_period_spec(seed=seed)
    points = [
        {**p.params, "label": f"eps/{p.label}"} for p in eps.expand()
    ] + [
        {**p.params, "label": f"period/{p.label}"} for p in period.expand()
    ] + [
        {**eps.base, "balancer": b, "label": f"aware/{b}"} for b in AWARE_BALANCERS
    ]
    return SweepSpec(name="ablation", points=tuple(points))


def observed_spec(seed: int) -> SweepSpec:
    """ABL-PERIOD's 5 points."""
    return ablation_period_spec(seed=seed)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``sweeps`` are the ``run_sweep`` calls of one pass, as ``(tag,
    options)``; an ``audit_dir`` option of ``True`` is replaced by a
    fresh directory per pass. ``cold_share`` is the part of a run's
    seconds spent on cold passes; the rest goes to warm passes.
    ``check_backend`` is the other engine a spot check re-runs points on.
    """

    name: str
    spec: Callable[[int], SweepSpec]
    sweeps: Tuple[Tuple[str, Dict[str, Any]], ...]
    cold_share: float
    check_backend: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig2", lambda s: fig2_sweep_spec(seed=s), (("", {}),), 0.85, "events"),
        Workload("ablation", ablation_spec, (("", {}),), 0.85, "events"),
        Workload("events", ablation_spec, (("", {"backend": "events"}),), 0.85, "fast"),
        Workload(
            "observed",
            observed_spec,
            (
                ("ledger", {"ledger": True}),
                ("lineage", {"lineage": True}),
                ("audit", {"audit_dir": True}),
            ),
            0.6,
            "events",
        ),
    )
}


def digest(
    summary: Mapping[str, Any],
    *,
    ledger: Optional[Mapping[str, Any]] = None,
    lineage: Optional[Mapping[str, Any]] = None,
    audit: Optional[Mapping[str, Any]] = None,
) -> str:
    """Short content hash of one point's outputs (bit-exact floats)."""
    blob = canonical_json(
        {"summary": summary, "ledger": ledger, "lineage": lineage, "audit": audit}
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def point_digest(r: PointResult) -> str:
    return digest(r.summary.to_dict(), ledger=r.ledger, lineage=r.lineage, audit=r.audit)


def _key(tag: str, label: str) -> str:
    return f"{tag}/{label}" if tag else label


@dataclass
class PassResult:
    """What one pass produced. Times are reference seconds (see
    ``speed.py``); ``raw_s`` is the unscaled wall time and ``kernel_s``
    the speed kernel's time inside the sweeps, which neither includes."""

    wall_s: float
    raw_s: float
    kernel_s: float
    digests: Dict[str, str]
    point_walls: Dict[str, float]  # reference wall_s of each executed (non-cached) point
    points: int
    hits: int


def run_pass(
    workload: Workload,
    spec: SweepSpec,
    cache: ResultCache,
    workdir: Path,
    *,
    backend: Optional[str] = None,
) -> PassResult:
    """Run the workload's sweeps once on ``cache``; ``backend`` overrides
    the workload's own. Only the ``run_sweep`` calls are timed."""
    wall = raw = kernel_s = 0.0
    digests: Dict[str, str] = {}
    point_walls: Dict[str, float] = {}
    points = hits = 0
    for tag, options in workload.sweeps:
        options = dict(options)
        if options.get("audit_dir") is True:
            options["audit_dir"] = tempfile.mkdtemp(prefix="audit-", dir=workdir)
        if backend is not None:
            options["backend"] = backend
        probe = SpeedProbe()
        probe.sample()
        # looked up at call time, so a tracer's wrapper is the one called
        result = sweep_module.run_sweep(
            spec, cache=cache, log=EventLog(on_event=probe.on_event), **options
        )
        probe.sample()
        wall += probe.reference_s()
        raw += probe.raw_s()
        kernel_s += probe.inner_kernel_s()
        if "audit_dir" in options:
            shutil.rmtree(options["audit_dir"])
        scales = probe.scales()
        for r in result.results:
            key = _key(tag, r.label)
            digests[key] = point_digest(r)
            if not r.cached:
                point_walls[key] = r.wall_s * scales[r.label]
        points += result.metrics.points
        hits += result.metrics.cache_hits
    return PassResult(wall, raw, kernel_s, digests, point_walls, points, hits)


def fresh_cache(workdir: Path) -> ResultCache:
    return ResultCache(Path(tempfile.mkdtemp(prefix="cache-", dir=workdir)))


def cache_bytes(cache: ResultCache) -> int:
    return sum(p.stat().st_size for p in cache.root.rglob("*") if p.is_file())


def mismatches(expected: Mapping[str, str], got: Mapping[str, str]) -> int:
    """Points of ``got`` that differ from ``expected`` or are missing."""
    return sum(1 for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def spot_check(workload: Workload, spec: SweepSpec, seed: int, digests: Mapping[str, str], k: int) -> List[str]:
    """Re-run ``k`` seed-chosen points on the other engine; return the keys
    whose outputs differ from ``digests``.

    Audited points only exist on the event engine, so the check covers
    the observed workload's ledger and lineage sweeps.
    """
    rerun = {
        "": lambda p: digest(run_point(p, backend=workload.check_backend).to_dict()),
        "ledger": lambda p: _ledgered(p, workload.check_backend),
        "lineage": lambda p: _lineaged(p, workload.check_backend),
    }
    candidates = [
        (tag, p) for tag, _ in workload.sweeps if tag in rerun for p in spec.expand()
    ]
    bad = []
    for tag, p in random.Random(seed).sample(candidates, min(k, len(candidates))):
        key = _key(tag, p.label)
        if rerun[tag](p.params) != digests.get(key):
            bad.append(key)
    return bad


def _ledgered(params: Mapping[str, Any], backend: str) -> str:
    summary, ledger = run_point_ledgered(params, backend=backend)
    return digest(summary.to_dict(), ledger=ledger)


def _lineaged(params: Mapping[str, Any], backend: str) -> str:
    summary, lineage = run_point_lineaged(params, backend=backend)
    return digest(summary.to_dict(), lineage=lineage)
