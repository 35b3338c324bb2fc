"""Tests of the benchmark itself: python -m pytest bench/tests -q

They drive ``run.py`` as a subprocess with very short runs, so they
check names, wiring and output checking, not timings.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def config():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.fixture(scope="module")
def traced():
    """Two traced ablation runs and one traced events run (seed 0)."""
    return {
        key: run("--workload", workload, "--seconds", "0.1", "--trace", "1")
        for key, workload in (("a1", "ablation"), ("a2", "ablation"), ("events", "events"))
    }


def test_config_shape():
    cfg = config()
    assert set(cfg) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in cfg["workloads"]]
    names += [m["name"] for m in cfg["end_to_end"] + cfg["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_emitted_names_match_config():
    cfg = config()
    code, out = run("--workload", "ablation", "--seconds", "0.1", "--trace", "0")
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == {m["name"] for m in cfg["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_names_match_config(traced):
    code, out = traced["a1"]
    assert code == 0 and out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in config()["per_layer"]}
    assert all(NAME.fullmatch(n) for n in out["metrics"])


def test_work_calls_equal_across_engines_and_counts_repeat(traced):
    counts = {
        key: {n: m["value"] for n, m in out["metrics"].items() if m["unit"] in ("count", "bytes")}
        for key, (_, out) in traced.items()
    }
    assert counts["a1"] == counts["a2"]
    assert counts["a1"]["apps.work_calls"] == counts["events"]["apps.work_calls"] > 0


def test_tracer_restores_originals_and_keeps_outputs():
    from layers import LAYERS, Tracer, _resolve
    from workload import point_digest

    from repro.experiments import sweep as sweep_module
    from repro.experiments.sweep_presets import smoke_spec

    originals = {
        (module, path): vars(_resolve(module, path)[0])[_resolve(module, path)[1]]
        for targets in LAYERS.values()
        for module, path, _ in targets
    }
    plain = [point_digest(r) for r in sweep_module.run_sweep(smoke_spec()).results]
    with Tracer() as tracer:
        # looked up through the module, as the benchmark does
        traced = [point_digest(r) for r in sweep_module.run_sweep(smoke_spec()).results]
    assert traced == plain
    assert tracer.stats["sweep"].calls == 1 and tracer.stats["apps.work"].calls > 0
    for (module, path), fn in originals.items():
        owner, attr = _resolve(module, path)
        assert vars(owner)[attr] is fn, f"{module}.{path} still wrapped"


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_corrupted_reference_fails(tmp_path):
    root = copy_checkout(tmp_path, with_src=True)
    ref = root / "bench" / "reference" / "seed0.json"
    data = json.loads(ref.read_text())
    label = sorted(data["workloads"]["ablation"])[0]
    data["workloads"]["ablation"][label] = "0" * 16
    ref.write_text(json.dumps(data))
    code, out = run("--workload", "ablation", "--seconds", "0.1", "--trace", "0", root=root)
    assert code == 1
    assert not out["correct"] and out["failed"] > 0


def test_refuses_without_sources(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    code, out = run("--workload", "ablation", "--seconds", "0.1", "--trace", "0", root=root)
    assert code != 0 and out is None
