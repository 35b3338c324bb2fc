"""Repository benchmark: the paper's sweeps, end to end and layer by layer.

Runs each workload in its own fresh interpreter (``child.py``), one at a
time, as a single serial process (``workers=1``). For each workload:

* end-to-end (``--trace 0``): one measuring process reports
  ``sweep_s``, ``warm_sweep_s``, ``point_p90_s`` and ``peak_rss_mb``;
  then ``setup_s`` is the median of five fresh interpreters timed from
  launch to the first built scenario. Times are reference seconds: wall
  time scaled by host speed (see ``speed.py``); raw wall is printed too;
* per-layer (``--trace 1``): a separate process alternates untraced and
  traced passes and reports every layer's self time and counts.

Without ``--trace`` both are run. Every metric is printed by name with
its unit, every point result is checked (see ``child.py``), and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 if any
point failed, 2 on a usage or environment error.

Usage:
  python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace {0,1}]
  python3 bench/run.py --make-reference [--seed N ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import KERNEL_REF_S, time_kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
#: a measuring child gets its seconds plus this much for warm-up and checks
CHILD_SLACK_S = 120
REFERENCE_TIMEOUT_S = 1800


def load_config() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # pin the provenance stamp cache entries carry, so no run shells out
    # to git or reads a repository outside the checkout
    env["REPRO_GIT_SHA"] = "bench"
    # string hashing (and with it dict layout) is then the same in every
    # run, which removes one source of run-to-run timing variation
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: List[str], timeout: float) -> Dict[str, object]:
    """Run ``child.py`` and parse the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        env=child_env(),
        cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure_setup(workload: str, seed: int, src: Path) -> Tuple[float, float]:
    """Median reference and raw seconds from launching a fresh interpreter
    to its first built scenario."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        k0 = time_kernel()
        # CLOCK_MONOTONIC is system-wide, so the child's reading compares with ours
        t0 = time.monotonic()
        out = run_child(["setup", workload, "--seed", str(seed), "--src", str(src)], SETUP_TIMEOUT_S)
        elapsed = out["done"] - t0
        k1 = time_kernel()
        raw.append(elapsed)
        scaled.append(elapsed * KERNEL_REF_S / ((k0 + k1) / 2))
    return statistics.median(scaled), statistics.median(raw)


def run_workload(
    workload: str, seed: int, seconds: float, trace: Optional[int], src: Path, workdir: Path
) -> Dict[str, object]:
    """Every requested measurement of one workload, merged."""
    common = ["--seed", str(seed), "--seconds", str(seconds), "--src", str(src),
              "--workdir", str(workdir)]
    merged: Dict[str, object] = {"attempted": 0, "failed": 0, "metrics": {}, "samples": {}, "raw": {}}
    modes = {None: ("measure", "trace"), 0: ("measure",), 1: ("trace",)}[trace]
    for mode in modes:
        out = run_child([mode, workload, *common], seconds + CHILD_SLACK_S)
        if mode == "measure" and out["metrics"]:
            out["metrics"]["setup_s"], out["raw"]["setup_s"] = measure_setup(workload, seed, src)
            out["samples"]["setup_s"] = SETUP_RUNS
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for key in ("metrics", "samples", "raw"):
            merged[key].update(out.get(key, {}))
        merged["reference"] = out["reference"]
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="input seed (default 0; repeatable with --make-reference)")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"],
                        help="measured seconds per workload and mode")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer only (default both)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to benchmark (default: this checkout's src)")
    parser.add_argument("--make-reference", action="store_true",
                        help="write bench/reference/seed<N>.json from the event engine")
    args = parser.parse_args(argv)
    seeds = args.seed or [0]
    if not (args.src / "repro" / "__init__.py").is_file():
        print(f"run.py: error: no repro package under {args.src}", file=sys.stderr)
        return 2
    if not args.make_reference and len(seeds) > 1:
        parser.error("one --seed per run")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        if args.make_reference:
            for seed in seeds:
                run_child(["reference", "--seed", str(seed), "--src", str(args.src),
                           "--workdir", str(workdir)], REFERENCE_TIMEOUT_S)
                print(f"wrote bench/reference/seed{seed}.json")
            return 0
        results = {
            w: run_workload(w, seeds[0], args.seconds, args.trace, args.src, workdir)
            for w in (args.workload or names)
        }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    return report(config, results, args.trace)


def report(config: Dict[str, object], results: Dict[str, Dict[str, object]], trace: Optional[int]) -> int:
    """Print every metric with its unit, then the JSON result line."""
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    wanted = {
        None: list(specs),
        0: [m["name"] for m in config["end_to_end"]],
        1: [m["name"] for m in config["per_layer"]],
    }[trace]
    single = len(results) == 1
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    for workload, res in results.items():
        attempted += res["attempted"]
        failed += res["failed"]
        ref = "reference digests" if res.get("reference") else "repeat + cross-engine spot check"
        print(f"[{workload}] checked {res['attempted']} point results against {ref}: "
              f"{res['failed']} failed, fail_frac={res['failed'] / max(res['attempted'], 1):.6g}")
        for name in wanted:
            if name not in res["metrics"]:
                continue
            value, unit = res["metrics"][name], specs[name]["unit"]
            shown = value if isinstance(value, int) else f"{value:.6g}"
            notes = [f"n={res['samples'][name]}"] if name in res["samples"] else []
            if name in res["raw"]:
                notes.append(f"raw wall {res['raw'][name]:.6g} s")
            print(f"[{workload}] {name} = {shown} {unit}" + (f"  ({', '.join(notes)})" if notes else ""))
            metrics[name if single else f"{workload}.{name}"] = {"value": value, "unit": unit}
    correct = failed == 0 and attempted > 0 and all(
        set(res["metrics"]) >= set(wanted) for res in results.values()
    )
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
