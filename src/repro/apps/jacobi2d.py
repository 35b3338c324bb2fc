"""Jacobi2D — "a canonical benchmark that iteratively applies a 5-point
stencil over a 2D grid of points" (paper §V).

Strong-scaling workload: the grid size is fixed, so per-core work shrinks
as cores grow — one ingredient in the paper's observation that the LB
timing penalty falls with core count (more underloaded cores to absorb
the interfered cores' objects).
"""

from __future__ import annotations

from repro.apps.base import AppModel, CORE_SPEED_FLOPS, JACOBI_FLOPS_PER_CELL
from repro.apps.stencil import build_strip_array
from repro.runtime.chare import ChareArray
from repro.runtime.commgraph import CommGraph
from repro.util import check_positive

__all__ = ["Jacobi2D"]


class Jacobi2D(AppModel):
    """5-point Jacobi relaxation on an ``N x N`` grid.

    Parameters
    ----------
    grid_size:
        N — the grid edge (default 4096, ~16.8M cells).
    odf:
        Overdecomposition factor: chares per core.
    core_speed:
        Effective flops/s per core (see :data:`CORE_SPEED_FLOPS`).
    jitter_amp:
        Small smooth per-task cost variation (default 0.5%).
    """

    name = "jacobi2d"

    def __init__(
        self,
        grid_size: int = 4096,
        *,
        odf: int = 8,
        core_speed: float = CORE_SPEED_FLOPS,
        jitter_amp: float = 0.005,
        jitter_seed: int = 0,
    ) -> None:
        check_positive("grid_size", grid_size)
        check_positive("odf", odf)
        self.grid_size = int(grid_size)
        self.odf = int(odf)
        self.core_speed = float(core_speed)
        self.jitter_amp = float(jitter_amp)
        self.jitter_seed = int(jitter_seed)

    def build_array(self, num_cores: int) -> ChareArray:
        check_positive("num_cores", num_cores)
        return build_strip_array(
            self.name,
            self.grid_size,
            self.odf * num_cores,
            flops_per_cell=JACOBI_FLOPS_PER_CELL,
            core_speed=self.core_speed,
            fields=2,  # current + next grid copies
            jitter_amp=self.jitter_amp,
            jitter_seed=self.jitter_seed,
        )

    def comm_bytes(self, num_cores: int) -> float:
        """Two halo rows of doubles per core boundary."""
        return 2.0 * self.grid_size * 8.0

    def comm_graph(self, num_cores: int) -> CommGraph:
        """Strip chain: adjacent strips exchange one halo row each way."""
        return CommGraph.chain(
            self.name, self.odf * num_cores, 2.0 * self.grid_size * 8.0
        )
