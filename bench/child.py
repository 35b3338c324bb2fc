"""One benchmark workload, measured in a fresh interpreter.

``run.py`` starts this script once per workload and mode and reads the
JSON object it prints as its last line. Modes:

* ``setup`` — import, ``code_fingerprint()``, spec expansion and the
  first ``build_scenario``; prints the monotonic clock when done, so the
  parent can time the whole launch.
* ``measure`` — one discarded warm-up pass, then rounds for
  ``--seconds``: a cold pass on a fresh cache, then warm passes on that
  cache for the workload's warm share of the round. Timings are
  reference seconds (``speed.py``); also peak RSS.
* ``trace`` — alternates an untraced and a traced pair of passes (cold,
  then warm on the same cache) for ``--seconds``; per-layer numbers are
  the traced pairs' mean, times in reference seconds.
* ``reference`` — writes the reference digests for ``--seed`` from the
  event engine, after checking that the fast path agrees on every
  ``fig2`` and ``ablation`` point.

Every pass's per-point digests are checked against the committed
reference for the seed when there is one. For other seeds the warm-up
pass's digests must repeat in every later pass, and a few seed-chosen
points are re-run on the other engine and must agree.

Usage: python3 bench/child.py MODE [WORKLOAD] [--seed N] [--seconds S]
       [--src DIR] [--workdir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Mapping, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"

#: points re-run on the other engine when the seed has no reference
SPOT_CHECKS = 3


class Checker:
    """Counts point results checked and those that failed."""

    def __init__(self, expected: Optional[Mapping[str, str]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, digests: Mapping[str, str]) -> None:
        from workload import mismatches

        if self.expected is None:  # no reference: later passes must repeat this one
            self.expected = dict(digests)
        self.attempted += len(self.expected)
        self.failed += mismatches(self.expected, digests)

    def fail_pass(self, points: int) -> None:
        traceback.print_exc()
        self.attempted += points
        self.failed += points

    def result(self, metrics: Dict[str, float], **extra) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed, "metrics": metrics, **extra}


def load_reference(seed: int, workload: str) -> Optional[Dict[str, str]]:
    path = REFERENCE / f"seed{seed}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)["workloads"][workload]


def _points(w, spec) -> int:
    return len(spec.expand()) * len(w.sweeps)


def measure(w, seed: int, seconds: float, workdir: Path, checker: Checker, has_ref: bool):
    from workload import fresh_cache, run_pass, spot_check

    spec = w.spec(seed)
    cold, warm = [], []
    point_walls: Dict[str, List[float]] = {}
    try:
        warmup = run_pass(w, spec, fresh_cache(workdir), workdir)
        checker.check(warmup.digests)
        t_start = time.perf_counter()
        # rounds of one cold pass then warm passes on its cache, so both
        # kinds sample the whole run
        while not cold or time.perf_counter() - t_start < seconds:
            cache = fresh_cache(workdir)
            t_round = time.perf_counter()
            r = run_pass(w, spec, cache, workdir)
            checker.check(r.digests)
            cold.append(r)
            warm_budget = (time.perf_counter() - t_round) * (1 - w.cold_share) / w.cold_share
            t_warm = time.perf_counter()
            while True:
                r = run_pass(w, spec, cache, workdir)
                checker.check(r.digests)
                warm.append(r)
                if time.perf_counter() - t_warm >= warm_budget:
                    break
            shutil.rmtree(cache.root)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not has_ref:
            bad = spot_check(w, spec, seed, warmup.digests, SPOT_CHECKS)
            checker.attempted += SPOT_CHECKS
            checker.failed += len(bad)
    except Exception:
        checker.fail_pass(_points(w, spec))
        return checker.result({})
    for r in cold + warm:
        for key, wall in r.point_walls.items():
            point_walls.setdefault(key, []).append(wall)
    # p90 across points of each point's median: a tail over the points,
    # not over single runs of them
    point_medians = [statistics.median(v) for v in point_walls.values()]
    metrics = {
        "sweep_s": statistics.median(r.wall_s for r in cold),
        "warm_sweep_s": statistics.median(r.wall_s for r in warm),
        "point_p90_s": statistics.quantiles(point_medians, n=10)[-1],
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "sweep_s": statistics.median(r.raw_s for r in cold),
        "warm_sweep_s": statistics.median(r.raw_s for r in warm),
    }
    samples = {"sweep_s": len(cold), "warm_sweep_s": len(warm), "point_p90_s": len(point_medians)}
    return checker.result(metrics, samples=samples, raw=raw)


def trace(w, seed: int, seconds: float, workdir: Path, checker: Checker):
    from layers import SIM_LAYERS, Tracer
    from workload import cache_bytes, fresh_cache, run_pass

    spec = w.spec(seed)

    def pair(tracer=None):
        cache = fresh_cache(workdir)
        with tracer if tracer is not None else contextlib.nullcontext():
            # cold, then warm on the same cache
            runs = [run_pass(w, spec, cache, workdir) for _ in range(2)]
        for r in runs:
            checker.check(r.digests)
        size = cache_bytes(cache)
        shutil.rmtree(cache.root)
        return runs, size

    try:
        checker.check(run_pass(w, spec, fresh_cache(workdir), workdir).digests)
        untraced: List[float] = []
        traced: List[float] = []
        samples: List[Dict[str, float]] = []
        t_start = time.perf_counter()
        while not traced or time.perf_counter() - t_start < seconds:
            runs, _ = pair()
            untraced.append(sum(r.wall_s for r in runs))
            tracer = Tracer()
            runs, size = pair(tracer)
            traced.append(sum(r.wall_s for r in runs))
            samples.append(layer_metrics(tracer, SIM_LAYERS, runs, size))
    except Exception:
        checker.fail_pass(_points(w, spec))
        return checker.result({})
    metrics = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        # counts repeat exactly across pairs; times are averaged
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return checker.result(metrics, samples={"traced_pairs": len(traced)})


def layer_metrics(tracer, sim_layers, runs, size: int) -> Dict[str, float]:
    """One traced pair's per-layer metrics, times in reference seconds."""
    raw = sum(r.raw_s for r in runs)
    scale = sum(r.wall_s for r in runs) / raw
    times = tracer.self_times()
    # the speed kernel runs in the sweep's event callback, inside run_sweep
    times["sweep"] = max(times["sweep"] - sum(r.kernel_s for r in runs), 0.0)
    stats = tracer.stats
    m = {f"{name}_s": t * scale for name, t in times.items() if name != "sweep"}
    m["sweep.overhead_s"] = times["sweep"] * scale
    m["sim.self_s"] = sum(times[name] for name in sim_layers) * scale
    m["trace.unattributed_frac"] = times["sweep"] / raw
    m["cache.gets"] = stats["cache.get"].calls
    m["cache.puts"] = stats["cache.put"].calls
    m["cache.hit_ratio"] = sum(r.hits for r in runs) / sum(r.points for r in runs)
    m["cache.bytes"] = size
    m["apps.work_calls"] = stats["apps.work"].calls
    m["database.view_builds"] = stats["database.view_build"].calls
    m["balancer.balance_calls"] = stats["balancer.balance"].calls
    m["runtime.migrations"] = stats["runtime.migrate"].items
    m["ledger.hook_calls"] = stats["ledger.hook"].calls
    m["lineage.hook_calls"] = stats["lineage.hook"].calls
    return m


def setup(w, seed: int) -> Dict[str, float]:
    from repro.experiments.cache import code_fingerprint
    from repro.experiments.sweep import build_scenario

    code_fingerprint()
    points = w.spec(seed).expand()
    build_scenario(points[0].params)
    return {"done": time.monotonic()}


def make_reference(seed: int, workdir: Path, out: Path) -> None:
    from workload import WORKLOADS, fresh_cache, run_pass

    refs: Dict[str, Dict[str, str]] = {}
    for name in ("fig2", "ablation", "observed"):
        w = WORKLOADS[name]
        spec = w.spec(seed)
        refs[name] = run_pass(w, spec, fresh_cache(workdir), workdir, backend="events").digests
        if name != "observed":  # audited points exist only on the event engine
            fast = run_pass(w, spec, fresh_cache(workdir), workdir, backend="fast").digests
            if fast != refs[name]:
                bad = sorted(k for k in fast if fast[k] != refs[name].get(k))
                raise SystemExit(f"seed {seed}: fast path differs from events on {name}: {bad}")
    refs["events"] = refs["ablation"]
    out.write_text(json.dumps({"seed": seed, "workloads": refs}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace", "reference"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)

    # the bench modules import repro, so they load only after this
    sys.path.insert(0, str(args.src.resolve()))
    import repro
    from workload import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(args.src.resolve()):
        raise SystemExit(f"imported {repro.__file__}, not the tree under {args.src}")
    if args.mode == "reference":
        out = REFERENCE / f"seed{args.seed}.json"
        make_reference(args.seed, args.workdir, out)
        print(json.dumps({"wrote": str(out)}))
        return 0
    w = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = setup(w, args.seed)
    else:
        expected = load_reference(args.seed, w.name)
        checker = Checker(expected)
        if args.mode == "measure":
            out = measure(w, args.seed, args.seconds, args.workdir, checker, expected is not None)
        else:
            out = trace(w, args.seed, args.seconds, args.workdir, checker)
        out["reference"] = expected is not None
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
