"""Application model interface.

An :class:`AppModel` describes a tightly coupled iterative application
abstractly — how it decomposes into chares for a given core count, what
each chare costs per iteration, and how much halo data a core exchanges —
and can instantiate itself as a :class:`~repro.runtime.runtime.Runtime`
on a simulated cluster.

Cost calibration
----------------
Work models convert flop counts to CPU-seconds with
:data:`CORE_SPEED_FLOPS`, the effective per-core throughput on
stencil/MD-style code. The default (1 GFLOP/s) is representative of one
core of the paper's 2009-era Xeon X3430 on memory-bound stencil sweeps.
Its absolute value only scales simulated wall-clock; every figure the
harness reproduces is a *ratio* (penalty %, overhead %), so results are
insensitive to it — which is exactly why the reproduction can make
shape-level claims without the original hardware.

The per-cell and per-pair flop counts live here too, beside the speed
they are divided by, so the cost models load without NumPy; the kernel
modules that the counts describe re-export them.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.netmodel import NetworkModel
from repro.core.balancer import LoadBalancer
from repro.core.policies import LBPolicy
from repro.runtime.chare import ChareArray
from repro.runtime.commgraph import CommGraph
from repro.runtime.runtime import Runtime
from repro.sim.engine import SimulationEngine
from repro.telemetry import AuditTrail

__all__ = [
    "AppModel",
    "CORE_SPEED_FLOPS",
    "JACOBI_FLOPS_PER_CELL",
    "WAVE_FLOPS_PER_CELL",
    "LJ_FLOPS_PER_PAIR",
]

#: Effective per-core flop throughput used by the work models (flops/s).
CORE_SPEED_FLOPS = 1.0e9
#: Approximate flops per cell per Jacobi sweep.
JACOBI_FLOPS_PER_CELL = 6.0
#: Approximate flops per cell per Wave2D leapfrog step.
WAVE_FLOPS_PER_CELL = 9.0
#: Approximate flops per Lennard-Jones pair interaction.
LJ_FLOPS_PER_PAIR = 45.0


class AppModel(abc.ABC):
    """Abstract tightly coupled iterative application.

    Subclasses define the decomposition (:meth:`build_array`), the halo
    volume (:meth:`comm_bytes`) and a human-readable :attr:`name`.
    """

    #: Application name (used in result tables and accounting tags).
    name: str = "app"

    @abc.abstractmethod
    def build_array(self, num_cores: int) -> ChareArray:
        """Create the chare array for a run on ``num_cores`` cores.

        Implementations honour an overdecomposition factor: the number of
        chares is ``odf * num_cores`` (Charm++'s "more objects than
        processors" requirement, which is what gives the balancer units
        to move).
        """

    @abc.abstractmethod
    def comm_bytes(self, num_cores: int) -> float:
        """Halo bytes one core exchanges per iteration."""

    def comm_graph(self, num_cores: int) -> Optional[CommGraph]:
        """Per-chare communication graph, or None if the application only
        models communication as the flat per-core :meth:`comm_bytes`.

        Used when instantiating with ``use_comm_graph=True`` — the
        runtime then derives communication delay from object placement
        (see :mod:`repro.runtime.commgraph`).
        """
        return None

    def job_comm_graph(
        self, num_cores: int, use_comm_graph: bool
    ) -> Optional[CommGraph]:
        """The graph a job on ``num_cores`` cores charges communication by.

        None without ``use_comm_graph`` (the flat :meth:`comm_bytes`
        volume); otherwise :meth:`comm_graph`, which the application must
        provide. Both backends resolve a scenario's graph here.
        """
        if not use_comm_graph:
            return None
        graph = self.comm_graph(num_cores)
        if graph is None:
            raise ValueError(f"{type(self).__name__} does not provide a comm graph")
        return graph

    # ------------------------------------------------------------------
    def instantiate(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        core_ids: Sequence[int],
        *,
        name: Optional[str] = None,
        weight: float = 1.0,
        net: Optional[NetworkModel] = None,
        balancer: Optional[LoadBalancer] = None,
        policy: Optional[LBPolicy] = None,
        tracing: bool = False,
        run_kernels: bool = False,
        use_comm_graph: bool = False,
        audit: Optional[AuditTrail] = None,
    ) -> Runtime:
        """Build a ready-to-start :class:`Runtime` for this application.

        ``use_comm_graph=True`` switches communication modelling from the
        flat per-core volume to the placement-dependent graph (the app
        must implement :meth:`comm_graph`). ``audit`` is forwarded to
        the :class:`Runtime` unchanged.
        """
        graph = self.job_comm_graph(len(core_ids), use_comm_graph)
        rt = Runtime(
            engine,
            cluster,
            core_ids,
            name=name or self.name,
            weight=weight,
            net=net,
            balancer=balancer,
            policy=policy,
            comm_bytes=self.comm_bytes(len(core_ids)),
            comm_graph=graph,
            tracing=tracing,
            run_kernels=run_kernels,
            audit=audit,
        )
        rt.register_array(self.build_array(len(core_ids)))
        return rt
