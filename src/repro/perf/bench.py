"""The ``repro bench`` harness: a reproducible performance baseline.

The ROADMAP's "as fast as the hardware allows" is unenforceable without
numbers, so this module defines the repo's curated benchmark suite:

* **micro** — throughput of the substrate primitives that bound every
  experiment: event-engine scheduling, processor-sharing dispatch,
  Algorithm 1 / greedy decision rate, LB-view construction, network
  message costing, and result-cache IO;
* **macro** — end-to-end wall time of one interfered scenario and of the
  CI smoke sweep (the same 4 points CI runs), so pipeline-level
  regressions that no micro metric isolates still show up.

Each metric runs ``warmup`` discarded iterations then ``repeats``
measured ones, and is summarised by the repo-standard quantile
implementation (:func:`repro.telemetry.registry.summarize_samples`) as
median + IQR — the noise scale the regression gate in
:mod:`repro.perf.compare` uses. Results serialise to a schema-versioned
``BENCH_<git-sha>.json`` carrying an environment fingerprint (python,
platform, CPU count, git SHA, code fingerprint) so trajectory entries
are only ever compared in context.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.telemetry.registry import sample_quantile, summarize_samples

__all__ = [
    "BENCH_SCHEMA",
    "Benchmark",
    "SUITES",
    "default_benchmarks",
    "environment_fingerprint",
    "run_bench",
    "bench_filename",
    "save_bench",
    "load_bench",
    "format_bench_text",
]

#: Version stamp of the BENCH_*.json layout; bump on breaking changes.
BENCH_SCHEMA = 1

SUITES = ("micro", "macro")

HIGHER = "higher"  # larger metric value is better (throughput)
LOWER = "lower"  # smaller metric value is better (latency / wall time)


@dataclass(frozen=True)
class Benchmark:
    """One named metric: a callable returning the value of one repeat.

    ``max_repeats``/``max_warmup`` cap the global settings for expensive
    (macro) benchmarks so ``--repeats 20`` doesn't turn the smoke sweep
    into minutes of wall time.
    """

    name: str
    suite: str
    unit: str
    direction: str
    fn: Callable[[], float]
    max_repeats: Optional[int] = None
    max_warmup: Optional[int] = None


# ---------------------------------------------------------------------------
# micro benchmarks
# ---------------------------------------------------------------------------


def _bench_engine_events() -> float:
    """Schedule-and-fire rate for a 20k-event self-rescheduling chain."""
    from repro.sim import SimulationEngine

    n = 20_000
    eng = SimulationEngine()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            eng.schedule_after(0.001, tick)

    eng.schedule_after(0.001, tick)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    assert count[0] == n
    return n / wall


def _bench_core_dispatch() -> float:
    """Processor-sharing dispatch/complete rate on one shared core."""
    from repro.sim import SharedCore, SimProcess, SimulationEngine

    n = 1_000
    eng = SimulationEngine()
    core = SharedCore(eng, 0)
    done = [0]

    def count(_p: Any) -> None:
        done[0] += 1

    for i in range(n):
        proc = SimProcess(f"p{i}", 0.004 + (i % 7) * 0.0005, on_complete=count)
        eng.schedule_at(i * 0.01, core.dispatch, proc)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    assert done[0] == n
    return n / wall


def _make_view(num_cores: int, chares_per_core: int, interfered: int = 2):
    from repro.core import CoreLoad, LBView, TaskRecord

    cores = []
    for cid in range(num_cores):
        tasks = tuple(
            TaskRecord(
                chare=(f"a{cid}", i),
                cpu_time=0.01 + 0.001 * ((cid * 7 + i) % 5),
                state_bytes=1024.0,
            )
            for i in range(chares_per_core)
        )
        bg = 0.08 if cid < interfered else 0.0
        cores.append(CoreLoad(core_id=cid, tasks=tasks, bg_load=bg))
    return LBView(cores=tuple(cores), window=1.0)


def _bench_refine_vm_decisions() -> float:
    """Algorithm 1 decision rate on the paper-scale view (32x8)."""
    from repro.core import RefineVMInterferenceLB

    view = _make_view(32, 8)
    lb = RefineVMInterferenceLB(0.05)
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        migrations = lb.decide(view)
    wall = time.perf_counter() - t0
    assert migrations
    return reps / wall


def _bench_greedy_decisions() -> float:
    """Interference-aware greedy decision rate on the paper-scale view."""
    from repro.core import GreedyLB

    view = _make_view(32, 8)
    lb = GreedyLB(aware=True)
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        migrations = lb.decide(view)
    wall = time.perf_counter() - t0
    assert migrations
    return reps / wall


def _bench_view_build() -> float:
    """LBView construction rate from runtime counters (per LB step)."""
    from repro.core import LBDatabase
    from repro.sim import SharedCore, SimulationEngine
    from repro.sim.procstat import ProcStat

    eng = SimulationEngine()
    cores = {i: SharedCore(eng, i) for i in range(32)}
    db = LBDatabase(ProcStat(cores, owner="app"))
    mapping = {}
    for cid in range(32):
        for i in range(8):
            key = ("grid", cid * 8 + i)
            mapping[key] = cid
            db.record_task(key, 0.01)
    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        view = db.build_view(mapping)
    wall = time.perf_counter() - t0
    assert view.num_cores == 32
    return reps / wall


def _bench_net_message_time() -> float:
    """Per-message costing rate of the virtualised network model."""
    from repro.cluster import NetworkModel

    net = NetworkModel.virtualized()
    n = 50_000
    total = 0.0
    t0 = time.perf_counter()
    for i in range(n):
        total += net.message_time(1024.0 + (i & 1023))
    wall = time.perf_counter() - t0
    assert total > 0.0
    return n / wall


def _bench_fastpath_runs() -> float:
    """Fast-backend end-to-end run rate on an interfered, balanced scenario.

    The scenario is the macro smoke point, so
    ``micro.fastpath.runs_per_s x macro.smoke_point_events_s`` reads
    directly as the backend speedup.
    """
    from repro.experiments.runner import run_scenario
    from repro.experiments.sweep import build_scenario

    params = {
        "app": "jacobi2d",
        "scale": 0.05,
        "iterations": 10,
        "cores": 4,
        "bg": True,
        "balancer": "refine-vm",
    }
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        result = run_scenario(build_scenario(params), backend="fast")
    wall = time.perf_counter() - t0
    assert result.app.finished_at > 0.0
    return reps / wall


def _bench_contended_runs() -> float:
    """Fast-backend run rate on a fully contended scenario.

    Every application core shares time with the background job for the
    whole run, so the analytic contention fold (not the solo-core fold)
    carries the entire simulation — the ratio against
    ``fastpath.runs_per_s`` (half-contended smoke point) isolates the
    contended fold's cost.
    """
    from repro.experiments.runner import run_scenario
    from repro.experiments.sweep import build_scenario

    params = {
        "app": "jacobi2d",
        "scale": 0.05,
        "iterations": 10,
        "cores": 2,
        "bg": True,
        "balancer": "refine-vm",
    }
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        result = run_scenario(build_scenario(params), backend="fast")
    wall = time.perf_counter() - t0
    assert result.app.finished_at > 0.0
    return reps / wall


def _bench_lineaged_runs() -> float:
    """Fast-backend run rate with the lineage observatory attached.

    Same scenario as ``fastpath.runs_per_s``, so the ratio of the two
    metrics reads directly as the enabled-recorder overhead (sampling
    every task plus building the payload). The *disabled*-hook overhead
    — the ``is not None`` checks a bare run pays — is gated like the
    ledger's hooks: cross-commit A/B on ``fastpath.runs_per_s`` itself,
    held under 1%.
    """
    from repro.experiments.runner import run_scenario
    from repro.experiments.sweep import build_scenario
    from repro.obs.lineage import LineageRecorder

    params = {
        "app": "jacobi2d",
        "scale": 0.05,
        "iterations": 10,
        "cores": 4,
        "bg": True,
        "balancer": "refine-vm",
    }
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        scenario = build_scenario(params)
        lineage = LineageRecorder(job="app", core_ids=scenario.app_core_ids)
        run_scenario(scenario, backend="fast", lineage=lineage)
        payload = lineage.payload()
    wall = time.perf_counter() - t0
    assert payload["run"]["lb_steps"] >= 0
    return reps / wall


def _bench_cache_roundtrip() -> float:
    """Result-cache put+get rate (atomic JSON entries on local disk)."""
    from repro.experiments.cache import ResultCache

    summary = {"app_time": 1.0, "energy_j": 2.0, "detail": list(range(32))}
    n = 25
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(Path(tmp))
        t0 = time.perf_counter()
        for i in range(n):
            key = f"{i:064x}"
            cache.put(key, {"i": i}, summary)
            got = cache.get(key)
        wall = time.perf_counter() - t0
    assert got is not None
    return n / wall


# ---------------------------------------------------------------------------
# macro benchmarks
# ---------------------------------------------------------------------------


def _bench_smoke_point(backend: str = "auto") -> float:
    """End-to-end wall time of one interfered, balanced smoke scenario.

    ``backend`` is the macro suite's backend dimension: the default
    metric measures the production path (``auto`` → fast), the
    ``*_events_s`` variant forces the event engine, and their ratio is
    the measured backend speedup.
    """
    from repro.experiments.sweep import run_point

    t0 = time.perf_counter()
    run_point(
        {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 10,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        },
        backend=backend,
    )
    return time.perf_counter() - t0


def _bench_smoke_sweep(backend: str = "auto") -> float:
    """End-to-end wall time of the CI smoke sweep (4 points, serial)."""
    from repro.experiments.sweep import run_sweep
    from repro.experiments.sweep_presets import smoke_spec

    t0 = time.perf_counter()
    run_sweep(smoke_spec(), workers=1, cache=None, backend=backend)
    return time.perf_counter() - t0


def default_benchmarks() -> List[Benchmark]:
    """The curated suite, in reporting order."""
    return [
        Benchmark("engine.events_per_s", "micro", "events/s", HIGHER, _bench_engine_events),
        Benchmark("engine.dispatch_per_s", "micro", "procs/s", HIGHER, _bench_core_dispatch),
        Benchmark("lb.refine_vm.decisions_per_s", "micro", "decisions/s", HIGHER, _bench_refine_vm_decisions),
        Benchmark("lb.greedy.decisions_per_s", "micro", "decisions/s", HIGHER, _bench_greedy_decisions),
        Benchmark("lb.view_build_per_s", "micro", "views/s", HIGHER, _bench_view_build),
        Benchmark("net.message_time_per_s", "micro", "calls/s", HIGHER, _bench_net_message_time),
        Benchmark("fastpath.runs_per_s", "micro", "runs/s", HIGHER, _bench_fastpath_runs),
        Benchmark("fastpath.contended_runs_per_s", "micro", "runs/s", HIGHER, _bench_contended_runs),
        Benchmark("lineage.runs_per_s", "micro", "runs/s", HIGHER, _bench_lineaged_runs),
        Benchmark("cache.roundtrip_per_s", "micro", "ops/s", HIGHER, _bench_cache_roundtrip),
        Benchmark("macro.smoke_point_s", "macro", "s", LOWER, _bench_smoke_point, max_repeats=3, max_warmup=1),
        Benchmark("macro.smoke_point_events_s", "macro", "s", LOWER, lambda: _bench_smoke_point("events"), max_repeats=3, max_warmup=1),
        Benchmark("macro.smoke_sweep_s", "macro", "s", LOWER, _bench_smoke_sweep, max_repeats=3, max_warmup=1),
        Benchmark("macro.smoke_sweep_events_s", "macro", "s", LOWER, lambda: _bench_smoke_sweep("events"), max_repeats=3, max_warmup=1),
    ]


# ---------------------------------------------------------------------------
# environment fingerprint & execution
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    """Short git SHA of the working tree, or ``unknown`` outside a repo."""
    from repro.util.provenance import git_sha

    return git_sha()


def environment_fingerprint() -> Dict[str, Any]:
    """Everything needed to judge whether two BENCH files are comparable."""
    from repro.experiments.cache import code_fingerprint
    from repro.version import __version__

    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": _git_sha(),
        "code_fingerprint": code_fingerprint()[:16],
    }


def run_bench(
    *,
    suites: Sequence[str] = SUITES,
    repeats: int = 5,
    warmup: int = 2,
    name_filter: Optional[str] = None,
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> Dict[str, Any]:
    """Run the suite and return the schema-versioned result dict.

    Parameters
    ----------
    suites:
        Which suites to run (subset of :data:`SUITES`).
    repeats / warmup:
        Measured and discarded iterations per metric (clamped per
        benchmark by its ``max_repeats``/``max_warmup``).
    name_filter:
        Substring filter on metric names (``--filter`` on the CLI).
    progress:
        Optional ``(metric_name, index, total)`` callback fired before
        each metric runs.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite(s) {sorted(unknown)}; known: {SUITES}")

    selected = [
        b
        for b in default_benchmarks()
        if b.suite in suites and (name_filter is None or name_filter in b.name)
    ]
    if not selected:
        raise ValueError(
            f"no benchmarks match suites={sorted(suites)} filter={name_filter!r}"
        )

    metrics: Dict[str, Any] = {}
    t_start = time.perf_counter()
    for i, bench in enumerate(selected):
        if progress is not None:
            progress(bench.name, i, len(selected))
        n_rep = min(repeats, bench.max_repeats or repeats)
        n_warm = min(warmup, bench.max_warmup if bench.max_warmup is not None else warmup)
        for _ in range(n_warm):
            bench.fn()
        samples = [float(bench.fn()) for _ in range(n_rep)]
        stats = summarize_samples(samples)
        q1 = sample_quantile(samples, 0.25)
        q3 = sample_quantile(samples, 0.75)
        metrics[bench.name] = {
            "suite": bench.suite,
            "unit": bench.unit,
            "direction": bench.direction,
            "repeats": n_rep,
            "warmup": n_warm,
            "median": stats["p50"],
            "iqr": q3 - q1,
            "mean": stats["mean"],
            "p90": stats["p90"],
            "samples": samples,
        }

    return {
        "schema": BENCH_SCHEMA,
        "kind": "repro-bench",
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "elapsed_s": round(time.perf_counter() - t_start, 3),
        "env": environment_fingerprint(),
        "config": {
            "suites": sorted(suites),
            "repeats": repeats,
            "warmup": warmup,
            "filter": name_filter,
        },
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# persistence (the perf trajectory)
# ---------------------------------------------------------------------------


def bench_filename(result: Dict[str, Any]) -> str:
    """Trajectory entry name for a result: ``BENCH_<git-sha>.json``."""
    sha = result.get("env", {}).get("git_sha") or "unknown"
    return f"BENCH_{sha}.json"


def save_bench(result: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a result atomically (tmp + rename); returns the final path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and schema-check one BENCH_*.json file."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("kind") != "repro-bench":
        raise ValueError(f"{path}: not a repro bench result")
    if data.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: bench schema {data.get('schema')!r} != supported {BENCH_SCHEMA}"
        )
    if not isinstance(data.get("metrics"), dict):
        raise ValueError(f"{path}: bench result has no metrics")
    return data


def format_bench_text(result: Dict[str, Any]) -> str:
    """Human-readable table of one bench result."""
    from repro.experiments.tables import format_table

    env = result.get("env", {})
    rows = [
        (
            name,
            m["suite"],
            m["median"],
            m["iqr"],
            m["p90"],
            m["unit"],
            m["repeats"],
        )
        for name, m in sorted(result["metrics"].items())
    ]
    title = (
        f"repro bench — {len(rows)} metrics "
        f"(git {env.get('git_sha', '?')}, python {env.get('python', '?')}, "
        f"{env.get('cpu_count', '?')} cpus)"
    )
    return format_table(
        ["metric", "suite", "median", "IQR", "p90", "unit", "repeats"],
        rows,
        title=title,
        float_fmt="{:,.1f}",
    )
