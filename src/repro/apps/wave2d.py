"""Wave2D — "a tightly coupled 5-point stencil application" (paper §IV).

Wave2D is the paper's workhorse: the Figure 1 demonstration, one of the
three evaluated applications, *and* the interfering background job (a
2-core instance). Compared to Jacobi it carries an extra time level
(leapfrog) — more flops per cell and more migratable state.

:meth:`Wave2D.background` builds the paper's standard interference
workload: a small-grid instance sized for a 2-core run.
"""

from __future__ import annotations

from repro.apps.base import AppModel, CORE_SPEED_FLOPS, WAVE_FLOPS_PER_CELL
from repro.apps.stencil import build_strip_array
from repro.runtime.chare import ChareArray
from repro.runtime.commgraph import CommGraph
from repro.util import check_positive

__all__ = ["Wave2D"]


class Wave2D(AppModel):
    """Leapfrog integration of the 2D wave equation (5-point Laplacian).

    Parameters
    ----------
    grid_size:
        N — the grid edge (default 4096).
    odf:
        Overdecomposition factor (chares per core).
    core_speed:
        Effective flops/s per core.
    jitter_amp:
        Smooth per-task cost variation (default 0.5%).
    """

    name = "wave2d"

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
            flops_per_cell=WAVE_FLOPS_PER_CELL,
            core_speed=self.core_speed,
            fields=3,  # u_prev, u_curr, u_next
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

    # ------------------------------------------------------------------
    @classmethod
    def background(
        cls, *, grid_size: int = 1448, core_speed: float = CORE_SPEED_FLOPS
    ) -> "Wave2D":
        """The paper's interfering job: a small Wave2D for a 2-core run.

        The default grid is sized so that one core of the background job
        carries roughly the per-core load of the 4096-grid application on
        8 cores — heavy enough to fully occupy its share of the core, as
        a compute-bound co-tenant VM would. A 2-core instance with ODF 1
        (one chare per core — the job is *not* migratable; it belongs to
        another tenant).
        """
        return cls(grid_size=grid_size, odf=1, core_speed=core_speed, jitter_amp=0.0)
