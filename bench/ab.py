"""Interleaved A/B: this tree's benchmark against a base commit's sources.

Extracts ``src/`` of BASE_REF with ``git archive`` into ``.bench_work/``
(no worktree; ``.git`` is only read), then runs *this* tree's bench code
against both source trees for ``--pairs`` pairs, alternating which side
runs first. Pair *i* uses seed ``--seed + i`` on both sides.

For each workload and end-to-end metric it prints both sides' median and
quartiles, the fraction of pairs the head side won (ties count for
neither), and a verdict:

* ``gain`` — head won at least 9/10 of the pairs and the medians differ
  by more than the base side's quartile spread;
* ``unresolved`` — either side's quartile spread, as a share of its
  median, exceeds the metric's bound, and head did not beat base on
  every run;
* ``regression`` — head's median is worse than base's by more than the
  bound;
* ``within bound`` — otherwise.

Usage: python3 bench/ab.py BASE_REF [--pairs N] [--workload NAME ...]
       [--seconds S] [--seed N]
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PAIRS = 10


def extract_base(ref: str, dest: Path) -> Path:
    """``src/`` of ``ref`` unpacked under ``dest``; returns that ``src``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        stdout=subprocess.PIPE,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_side(src: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--src", str(src)],
        stdout=subprocess.PIPE,
        text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} on {src}: outputs failed the check")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(base: List[float], head: List[float], bound: float, lower_is_better: bool) -> Dict[str, object]:
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    b1, bm, b3 = statistics.quantiles(base, n=4)
    h1, hm, h3 = statistics.quantiles(head, n=4)
    spread = max((b3 - b1) / bm, (h3 - h1) / hm)
    worse = sign * (hm - bm) / bm
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if wins >= 0.9 * len(base) and sign * (bm - hm) > b3 - b1:
        text = "gain"
    elif spread > bound and not all_better:
        text = "unresolved"
    elif worse > bound:
        text = "regression"
    else:
        text = "within bound"
    return {"base": (b1, bm, b3), "head": (h1, hm, h3), "win": wins / len(base), "verdict": text}


def main(argv: Optional[List[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        config = json.load(fh)
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"a verdict needs at least {MIN_PAIRS} pairs")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ab-", dir=ROOT / ".bench_work"))
    try:
        trees = {"base": extract_base(args.base_ref, tmp), "head": ROOT / "src"}
        runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {
            w: {"base": [], "head": []} for w in args.workload or names
        }
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for workload, sides in runs.items():
                for side in order:
                    sides[side].append(run_side(trees[side], workload, args.seed + i, args.seconds))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    print(f"A/B {args.base_ref} (base) vs working tree (head), {args.pairs} pairs, "
          f"{args.seconds:g} s per run; median [q1, q3]")
    for workload, sides in runs.items():
        for m in config["end_to_end"]:
            name = m["name"]
            v = verdict([r[name] for r in sides["base"]], [r[name] for r in sides["head"]],
                        m["bound"], m["better"] == "lower")
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{workload:9s} {name:13s} base {fmt(v['base'])}  head {fmt(v['head'])}  "
                  f"win {v['win']:.0%}  {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
