"""Shared fixtures for the benchmark harness.

The Figure 2 and Figure 4 benchmarks derive from the same runs
(exactly as in the paper, where both figures report the same runs): the
fig2 sweep's points, run once per session.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — problem-size multiplier (default 1.0, the
  paper-scale grids/particle counts).
* ``REPRO_BENCH_ITERATIONS`` — application iterations per run (default
  200).

Each benchmark writes its regenerated table to ``results/<name>.txt`` in
the repository root so the artefacts survive pytest's output capture.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import run_sweep
from repro.experiments.sweep_presets import fig2_sweep_spec

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "200"))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def write_artifact(name: str, text: str) -> Path:
    """Persist a regenerated table/timeline and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def fig24_sweep():
    """The full Figure 2/4 sweep (3 apps x 4 core counts x 5 runs)."""
    return run_sweep(fig2_sweep_spec(scale=BENCH_SCALE, iterations=BENCH_ITERATIONS))
