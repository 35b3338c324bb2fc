"""Declarative experiment scenarios.

A :class:`Scenario` is everything needed to reproduce one run of the
paper's evaluation: the application and its core allocation, the optional
interfering background job (itself a small parallel application, per the
paper's 2-core Wave2D), the balancer and its cadence, and the testbed
shape. Scenarios are plain data; :func:`repro.experiments.runner.run_scenario`
executes them on a fresh simulated cluster, so results are independent
and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.apps.base import AppModel
from repro.cluster.netmodel import NetworkModel
from repro.core.balancer import LoadBalancer
from repro.core.policies import LBPolicy
from repro.util import check_positive

__all__ = ["BackgroundSpec", "Scenario"]


@dataclass(frozen=True)
class BackgroundSpec:
    """The interfering job of a scenario.

    Attributes
    ----------
    model:
        Application model of the background job (the paper uses a 2-core
        Wave2D; see :meth:`repro.apps.wave2d.Wave2D.background`).
    core_ids:
        Physical cores the job is pinned to (co-located with the
        application under test).
    iterations:
        Iterations the background job runs.
    weight:
        OS scheduler weight. 1.0 = fair CPU sharing; >1 reproduces the
        host preference toward the background job the paper observed in
        its Mol3D experiments.
    start:
        Simulated launch time (0 = together with the application, as in
        the paper's Figure 2 runs; later values script Figure 1/3-style
        arrivals).
    """

    model: AppModel
    core_ids: Tuple[int, ...]
    iterations: int
    weight: float = 1.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ValueError("background job needs at least one core")
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ValueError(f"background core_ids has duplicates: {self.core_ids}")
        if min(self.core_ids) < 0:
            raise ValueError(f"background core_ids must be >= 0: {self.core_ids}")
        check_positive("iterations", self.iterations)
        check_positive("weight", self.weight)
        if self.start < 0:
            raise ValueError("start must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """One complete experiment description.

    Attributes
    ----------
    app:
        Application model under test.
    num_cores:
        Cores allocated to the application (ids ``0..num_cores-1``).
    iterations:
        Application iterations.
    balancer:
        Strategy, or None for a run without load balancing (the paper's
        "noLB"). Pass a fresh instance per scenario (strategies with
        internal counters, e.g. :class:`MigrationCostAwareLB`, accumulate
        statistics).
    policy:
        LB cadence and overheads.
    bg:
        Optional interfering job.
    net:
        Network model (default: the testbed's native Ethernet).
    cores_per_node:
        Node width (paper testbed: 4); the cluster allocates
        ``ceil(num_cores / cores_per_node)`` nodes, plus any nodes the
        background job needs.
    tracing:
        Record Projections events for the application (either backend).
    use_comm_graph:
        Model the application's communication per-chare (placement-
        dependent delay) instead of the flat per-core volume; requires
        the app to implement
        :meth:`~repro.apps.base.AppModel.comm_graph`.
    """

    app: AppModel
    num_cores: int
    iterations: int
    balancer: Optional[LoadBalancer] = None
    policy: LBPolicy = field(default_factory=LBPolicy)
    bg: Optional[BackgroundSpec] = None
    net: NetworkModel = field(default_factory=NetworkModel.native)
    cores_per_node: int = 4
    tracing: bool = False
    use_comm_graph: bool = False

    def __post_init__(self) -> None:
        check_positive("num_cores", self.num_cores)
        check_positive("iterations", self.iterations)
        check_positive("cores_per_node", self.cores_per_node)

    @property
    def app_core_ids(self) -> Tuple[int, ...]:
        """The application's core allocation (always the first cores)."""
        return tuple(range(self.num_cores))

    @property
    def num_nodes(self) -> int:
        """Nodes needed to host the application and background job."""
        highest = self.num_cores - 1
        if self.bg is not None:
            highest = max(highest, max(self.bg.core_ids))
        return highest // self.cores_per_node + 1
