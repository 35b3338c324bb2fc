"""AMR2D — a moving-refinement-front stencil (persistence stress test).

The paper's scheme, like all measurement-based balancing, rests on the
*principle of persistence*: "future loads will be almost the same as
measured loads". Stencil codes satisfy it trivially; adaptive mesh
refinement (AMR) codes strain it — a refined region (say, a shock front)
sweeps through the domain, so the expensive chares *change over time*.

:class:`AMR2D` models that regime without simulating actual regridding:
a strip's cost is the base stencil cost times a refinement factor when
the front overlaps it, and the front's centre advances a configurable
number of strips per iteration. Slow fronts (paper-like) keep loads
persistent across LB windows; fast fronts break persistence and expose
how stale measurements mislead any measurement-based balancer — the
behaviour benchmark ABL-PERSIST quantifies.
"""

from __future__ import annotations

from repro.apps.base import AppModel, CORE_SPEED_FLOPS, JACOBI_FLOPS_PER_CELL
from repro.runtime.chare import Chare, ChareArray
from repro.runtime.commgraph import CommGraph
from repro.util import check_non_negative, check_positive

__all__ = ["AMR2D", "AMRStripChare"]


class AMRStripChare(Chare):
    """One strip whose cost spikes while the refinement front overlaps it.

    Parameters
    ----------
    index:
        Strip index (the front moves along this axis).
    rows, cols:
        Coarse cells owned by the strip.
    num_strips:
        Total strips (for periodic front wrap-around).
    refinement:
        Cost multiplier inside the front (e.g. 8 = one extra 2D level
        plus time subcycling).
    front_width:
        Number of strips the front covers at once.
    front_speed:
        Strips the front advances per iteration (0 = static hotspot).
    core_speed:
        Effective flops/s per core.
    """

    def __init__(
        self,
        index: int,
        rows: int,
        cols: int,
        *,
        num_strips: int,
        refinement: float,
        front_width: int,
        front_speed: float,
        core_speed: float = CORE_SPEED_FLOPS,
    ) -> None:
        check_positive("rows", rows)
        check_positive("cols", cols)
        check_positive("num_strips", num_strips)
        check_positive("refinement", refinement)
        check_positive("front_width", front_width)
        check_non_negative("front_speed", front_speed)
        super().__init__(index, state_bytes=float(2 * rows * cols * 8))
        self.rows = int(rows)
        self.cols = int(cols)
        self.num_strips = int(num_strips)
        self.refinement = float(refinement)
        self.front_width = int(front_width)
        self.front_speed = float(front_speed)
        self.core_speed = float(core_speed)
        self._base = rows * cols * JACOBI_FLOPS_PER_CELL / core_speed

    def in_front(self, iteration: int) -> bool:
        """Does the refinement front overlap this strip at ``iteration``?"""
        centre = (self.front_speed * iteration) % self.num_strips
        # periodic distance from the front centre
        d = abs(self.index - centre)
        d = min(d, self.num_strips - d)
        return d <= self.front_width / 2.0

    def work(self, iteration: int) -> float:
        factor = self.refinement if self.in_front(iteration) else 1.0
        return self._base * factor


class AMR2D(AppModel):
    """Stencil with a moving refined region.

    Parameters
    ----------
    grid_size:
        Coarse grid edge.
    odf:
        Chares per core.
    refinement:
        Cost multiplier inside the front.
    front_width_frac:
        Fraction of the domain covered by the front.
    front_speed:
        Strips advanced per iteration. The persistence regime is
        ``front_speed * lb_period << front_width`` (loads look stable
        within a window); beyond that, measurements go stale before they
        are acted on.
    core_speed:
        Effective flops/s per core.
    """

    name = "amr2d"

    def __init__(
        self,
        grid_size: int = 2048,
        *,
        odf: int = 8,
        refinement: float = 8.0,
        front_width_frac: float = 0.15,
        front_speed: float = 0.1,
        core_speed: float = CORE_SPEED_FLOPS,
    ) -> None:
        check_positive("grid_size", grid_size)
        check_positive("odf", odf)
        check_positive("refinement", refinement)
        check_positive("front_width_frac", front_width_frac)
        check_non_negative("front_speed", front_speed)
        if front_width_frac > 1.0:
            raise ValueError("front_width_frac must be <= 1.0")
        self.grid_size = int(grid_size)
        self.odf = int(odf)
        self.refinement = float(refinement)
        self.front_width_frac = float(front_width_frac)
        self.front_speed = float(front_speed)
        self.core_speed = float(core_speed)

    def build_array(self, num_cores: int) -> ChareArray:
        check_positive("num_cores", num_cores)
        num_strips = self.odf * num_cores
        if num_strips > self.grid_size:
            raise ValueError(
                f"cannot cut {self.grid_size} rows into {num_strips} strips"
            )
        base, extra = divmod(self.grid_size, num_strips)
        front_width = max(int(round(self.front_width_frac * num_strips)), 1)
        chares = []
        for i in range(num_strips):
            rows = base + (1 if i < extra else 0)
            chares.append(
                AMRStripChare(
                    i,
                    rows,
                    self.grid_size,
                    num_strips=num_strips,
                    refinement=self.refinement,
                    front_width=front_width,
                    front_speed=self.front_speed,
                    core_speed=self.core_speed,
                )
            )
        return ChareArray(self.name, chares)

    def comm_bytes(self, num_cores: int) -> float:
        """Two halo rows of doubles per core boundary (coarse level)."""
        return 2.0 * self.grid_size * 8.0

    def comm_graph(self, num_cores: int) -> CommGraph:
        """Strip chain, as for the uniform stencils."""
        return CommGraph.chain(
            self.name, self.odf * num_cores, 2.0 * self.grid_size * 8.0
        )
