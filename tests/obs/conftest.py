"""Shared fixtures: fabricate sweep runs without running the simulator.

The registry and report tests need runs with controlled metrics (e.g.
an LB point slower than its matched noLB point); simulating would be
slow and couple the tests to engine physics. These factories build real
``SweepSpec``/``SweepResult`` objects directly.
"""

import pytest

from repro.experiments.progress import SweepMetrics
from repro.experiments.sweep import (
    PointResult,
    ScenarioSummary,
    SweepResult,
    SweepSpec,
)


def make_summary(app_time=1.0, total_migrations=2, **over):
    base = dict(
        app_time=app_time,
        bg_time=round(app_time * 1.1, 6),
        energy_j=50.0,
        avg_power_w=40.0,
        busy_core_seconds=3.0,
        iterations=10,
        lb_steps=2,
        total_migrations=total_migrations,
        total_migration_cost_s=0.01,
        total_task_cpu_s=2.5,
        final_mapping_digest="0123abcd",
    )
    base.update(over)
    return ScenarioSummary(**base)


def build_run(name="smoke", points=()):
    """Build ``(SweepSpec, SweepResult)`` from simple point descriptions.

    ``points`` is a list of dicts with ``label`` plus optional
    ``params``, ``app_time``, ``migrations``, ``audit``, ``seed``.
    """
    results = []
    spec_points = []
    for i, p in enumerate(points):
        params = dict(p.get("params", {}))
        params.setdefault("seed", p.get("seed", 0))
        results.append(
            PointResult(
                index=i,
                label=p["label"],
                params=params,
                key=f"key-{name}-{i:03d}",
                summary=make_summary(
                    p.get("app_time", 1.0), p.get("migrations", 2)
                ),
                cached=False,
                wall_s=0.01,
                worker="main",
                audit=p.get("audit"),
            )
        )
        spec_points.append({"label": p["label"], **params})
    metrics = SweepMetrics(
        points=len(results),
        executed=len(results),
        cache_hits=0,
        elapsed_s=0.1,
        executed_wall_s=0.05,
        workers=1,
        worker_utilization=0.5,
    )
    spec = SweepSpec(name=name, base={}, points=tuple(spec_points))
    return spec, SweepResult(
        spec_name=name, results=tuple(results), metrics=metrics
    )


@pytest.fixture
def fabricate():
    """The :func:`build_run` factory as a fixture."""
    return build_run


#: A matched interfered (noLB, LB) pair plus an uninterfered LB point.
PAIRED_POINTS = [
    {
        "label": "cores=4,balancer=none",
        "params": {"cores": 4, "balancer": "none", "bg": True},
        "app_time": 2.0,
    },
    {
        "label": "cores=4,balancer=refine-vm",
        "params": {"cores": 4, "balancer": "refine-vm", "bg": True},
        "app_time": 1.5,
    },
    {
        "label": "alone",
        "params": {"cores": 4, "balancer": "refine-vm", "bg": False},
        "app_time": 1.0,
    },
]
