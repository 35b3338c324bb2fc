"""Simulated results must not depend on how ``sum()`` rounds floats.

From Python 3.12, ``sum()`` over floats is compensated, so every float
total in ``repro`` goes through :func:`repro.util.left_sum`, the plain
left fold. These runs replace ``sum`` in every loaded ``repro`` module
with one that refuses float items, so a float total left on ``sum()``
anywhere on the exercised paths fails here on any interpreter.
"""

import builtins
import sys

import pytest

# probed sweeps import these lazily; load them so they are patched too
import repro.obs.ledger  # noqa: F401
import repro.obs.lineage  # noqa: F401
import repro.projections.export  # noqa: F401
import repro.telemetry.audit  # noqa: F401
from repro.experiments.sweep import run_point, run_sweep
from repro.experiments.sweep_presets import _ABLATION_BASE, smoke_spec


def _sum_without_floats(values, start=0):
    items = list(values)
    for x in (start, *items):
        if isinstance(x, float):
            raise AssertionError(
                f"sum() over the float {x!r}; float totals use left_sum"
            )
    return builtins.sum(items, start)


@pytest.fixture
def no_float_sum(monkeypatch):
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module in modules:
        monkeypatch.setattr(module, "sum", _sum_without_floats, raising=False)
    return modules


def test_the_probe_is_in_place(no_float_sum):
    assert repro.obs.lineage in no_float_sum
    with pytest.raises(AssertionError, match="left_sum"):
        repro.obs.lineage.sum([1, 0.5])
    assert repro.obs.lineage.sum([1, 2]) == 3


@pytest.mark.parametrize("backend", ["events", "fast"])
def test_probed_smoke_sweep(no_float_sum, backend, tmp_path):
    result = run_sweep(
        smoke_spec(),
        cache=None,
        backend=backend,
        audit_dir=tmp_path,
        ledger=True,
        lineage=True,
    )
    assert all(r.ledger["conserved"] for r in result.results)
    assert all(r.lineage["run"]["sane"] for r in result.results)
    assert sorted(p.suffix for p in tmp_path.iterdir()).count(".jsonl") == 4


def test_greedy_aware_ablation_point(no_float_sum):
    summary = run_point({**_ABLATION_BASE, "balancer": "greedy-aware"})
    # the "greedy (aware)" row of results/ablation_awareness.txt
    assert summary.total_migrations == 2353
