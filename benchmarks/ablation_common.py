"""Shared helpers for the ablation benchmarks."""

from typing import Optional

from repro.core import LBPolicy
from repro.core.balancer import LoadBalancer
from repro.cluster.netmodel import NetworkModel
from repro.experiments import BackgroundSpec, Scenario, run_scenario
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweep import _bg_model, background_job_iterations, paper_app


def interference_run(
    balancer: Optional[LoadBalancer],
    *,
    app_name: str = "jacobi2d",
    cores: int = 16,
    scale: float = 0.5,
    iterations: int = 100,
    lb_period: int = 5,
    bg_weight: float = 1.0,
    net: Optional[NetworkModel] = None,
    app=None,
) -> ExperimentResult:
    """One app-under-interference run with an arbitrary balancer.

    Mirrors the Figure-2 setup (2-core Wave2D background job on cores
    0-1, sized by the sweep's own rule to outlast the run) but leaves the
    strategy free — that is the variable the ablations sweep.
    """
    net = net or NetworkModel.native()
    model = app if app is not None else paper_app(app_name, scale)
    bg = _bg_model(scale)
    bg_iterations = background_job_iterations(
        model, cores, iterations, bg, weight=bg_weight
    )
    return run_scenario(
        Scenario(
            app=model,
            num_cores=cores,
            iterations=iterations,
            balancer=balancer,
            policy=LBPolicy(period_iterations=lb_period, decision_overhead_s=2e-4),
            bg=BackgroundSpec(
                model=bg, core_ids=(0, 1), iterations=bg_iterations, weight=bg_weight
            ),
            net=net,
        )
    )
