"""Shared strip decomposition for the 2D stencil applications.

Jacobi2D and Wave2D both sweep a 5-point stencil over an ``N x N`` grid.
The grid is decomposed into horizontal strips, one per chare, with the
chare count = overdecomposition factor x cores. Each chare's entry method
costs ``rows x N x flops_per_cell / core_speed`` CPU-seconds; an optional
small smooth jitter models run-to-run measurement variation without
breaking the paper's principle of persistence (loads next window ≈ loads
this window).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.apps.base import CORE_SPEED_FLOPS
from repro.runtime.chare import Chare, ChareArray
from repro.util import check_non_negative, check_positive

if TYPE_CHECKING:  # NumPy is imported by the validation kernel only
    import numpy as np

__all__ = ["StencilStripChare", "build_strip_array"]

_INF = float("inf")
_sin = math.sin


class StencilStripChare(Chare):
    """One horizontal strip of a 2D stencil grid.

    Parameters
    ----------
    index:
        Strip index (top to bottom).
    rows, cols:
        Interior cells owned by this strip.
    flops_per_cell:
        Stencil update cost (application-specific).
    core_speed:
        Effective flops/s of one core.
    fields:
        Number of persistent field copies (Jacobi: 2, Wave: 2+1) —
        determines serialised state size.
    jitter_amp:
        Amplitude of the smooth multiplicative cost jitter (0 disables).
    jitter_seed:
        Varies the jitter phases between otherwise identical runs — the
        run-to-run variation behind the repeat/averaging methodology.
    """

    def __init__(
        self,
        index: int,
        rows: int,
        cols: int,
        *,
        flops_per_cell: float,
        core_speed: float = CORE_SPEED_FLOPS,
        fields: int = 2,
        jitter_amp: float = 0.0,
        jitter_seed: int = 0,
    ) -> None:
        # constructed per chare per run: inline comparisons accept the
        # common case, the full checkers handle everything else (exact
        # error messages, odd numeric types)
        if not (
            type(rows) is int
            and type(cols) is int
            and type(fields) is int
            and type(flops_per_cell) is float
            and type(core_speed) is float
            and type(jitter_amp) is float
            and rows > 0
            and cols > 0
            and fields > 0
            and 0.0 < flops_per_cell < _INF
            and 0.0 < core_speed < _INF
            and 0.0 <= jitter_amp < _INF
        ):
            check_positive("rows", rows)
            check_positive("cols", cols)
            check_positive("flops_per_cell", flops_per_cell)
            check_positive("core_speed", core_speed)
            check_positive("fields", fields)
            check_non_negative("jitter_amp", jitter_amp)
        super().__init__(index, state_bytes=float(fields * rows * cols * 8))
        self.rows = int(rows)
        self.cols = int(cols)
        self.flops_per_cell = float(flops_per_cell)
        self.core_speed = float(core_speed)
        self.jitter_amp = float(jitter_amp)
        self.jitter_seed = int(jitter_seed)
        # deterministic per-(seed, chare) phase offset via a Weyl-style
        # integer hash, so distinct seeds give distinct but reproducible
        # jitter trajectories (the paper averages over "similar runs")
        self._jitter_phase = (
            ((self.jitter_seed * 2654435761 + self.index * 40503) % 6283) / 1000.0
        )
        self._base_work = self.rows * self.cols * self.flops_per_cell / self.core_speed
        # the index term of the jitter phase, computed once per chare
        self._index_phase = 2.3 * self.index
        # kernel state, allocated lazily only if execute() is used
        self._grid: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def work(self, iteration: int) -> float:
        """Cost model: cells x flops / speed, with smooth jitter.

        The jitter is a deterministic low-amplitude sinusoid in
        (iteration, index) — persistent from one LB window to the next, as
        real iterative codes are, but avoiding exactly tied loads.
        """
        amp = self.jitter_amp
        if amp == 0.0:
            return self._base_work
        phase = 0.7 * iteration + self._index_phase + self._jitter_phase
        return self._base_work * (1.0 + amp * _sin(phase))

    def execute(self, iteration: int) -> None:
        """Run the real 5-point sweep on this strip (validation mode).

        Each strip owns an independent ``(rows+2) x (cols+2)`` grid with
        ghost boundaries; halo exchange cost is modelled by the runtime's
        communication delay, so the kernels here exercise the arithmetic,
        not the messaging.
        """
        import numpy as np

        from repro.apps.stencil_kernels import jacobi_step

        if self._grid is None:
            self._grid = np.zeros((self.rows + 2, self.cols + 2))
            self._grid[0, :] = 1.0  # heated top ghost row
            self._scratch = np.empty_like(self._grid)
        jacobi_step(self._grid, self._scratch)
        self._grid, self._scratch = self._scratch, self._grid


def build_strip_array(
    name: str,
    grid_size: int,
    num_chares: int,
    *,
    flops_per_cell: float,
    core_speed: float = CORE_SPEED_FLOPS,
    fields: int = 2,
    jitter_amp: float = 0.0,
    jitter_seed: int = 0,
) -> ChareArray:
    """Decompose an ``N x N`` grid into ``num_chares`` strips.

    Rows are spread as evenly as possible (difference of at most one row
    between strips).
    """
    check_positive("grid_size", grid_size)
    check_positive("num_chares", num_chares)
    if num_chares > grid_size:
        raise ValueError(
            f"cannot cut {grid_size} rows into {num_chares} strips"
        )
    base, extra = divmod(grid_size, num_chares)
    chares = []
    for i in range(num_chares):
        rows = base + (1 if i < extra else 0)
        chares.append(
            StencilStripChare(
                i,
                rows,
                grid_size,
                flops_per_cell=flops_per_cell,
                core_speed=core_speed,
                fields=fields,
                jitter_amp=jitter_amp,
                jitter_seed=jitter_seed,
            )
        )
    return ChareArray(name, chares)
