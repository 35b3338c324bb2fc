"""Mol3D — "a classical molecular dynamics code" (paper §V).

Space is decomposed into cells (one chare each); the cost of a cell is
dominated by pair interactions, so it scales with the *square* of its
particle count plus a neighbour-exchange term. Particle density is
non-uniform (a clustered initial condition), which gives Mol3D something
the stencil codes lack: **internal** load imbalance, the case classic
Charm++ balancers were designed for. Particles drift slowly between
cells, so per-cell loads evolve smoothly — consistent with the principle
of persistence the paper's scheme (and all measurement-based balancing)
relies on.

The paper found the host OS *favoured* the interfering job during Mol3D
runs, producing no-LB timing penalties up to 400%. That bias is a
property of the co-scheduling, not of this application model — the
experiment harness reproduces it by giving the background job a larger
scheduler weight in Mol3D scenarios (see
``repro.experiments.scenario.Scenario.bg_weight``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.apps.base import AppModel, CORE_SPEED_FLOPS, LJ_FLOPS_PER_PAIR
from repro.runtime.chare import Chare, ChareArray
from repro.util import check_non_negative, check_positive, resolve_rng

if TYPE_CHECKING:  # NumPy is imported where arrays are made
    import numpy as np

__all__ = ["Mol3D", "MDCellChare"]

#: Serialised bytes per particle (position, velocity, force — 9 doubles).
_BYTES_PER_PARTICLE = 72.0

_TWO_PI = 2.0 * math.pi
_sin = math.sin


class MDCellChare(Chare):
    """One spatial cell of the MD decomposition.

    Parameters
    ----------
    index:
        Cell index.
    particles:
        Number of particles initially in this cell.
    avg_particles:
        Mean particles per cell (for the neighbour-interaction term).
    core_speed:
        Effective flops/s per core.
    drift_amp, drift_period:
        Amplitude/period of the slow sinusoidal particle-count drift
        (models particles migrating between cells over time).
    drift_phase:
        Per-cell phase offset of the drift.
    """

    def __init__(
        self,
        index: int,
        particles: int,
        *,
        avg_particles: float,
        core_speed: float = CORE_SPEED_FLOPS,
        drift_amp: float = 0.05,
        drift_period: int = 200,
        drift_phase: float = 0.0,
    ) -> None:
        check_non_negative("particles", particles)
        check_positive("avg_particles", avg_particles)
        check_positive("core_speed", core_speed)
        check_non_negative("drift_amp", drift_amp)
        check_positive("drift_period", drift_period)
        super().__init__(
            index, state_bytes=float(particles) * _BYTES_PER_PARTICLE
        )
        self.particles = int(particles)
        self.avg_particles = float(avg_particles)
        self.core_speed = float(core_speed)
        self.drift_amp = float(drift_amp)
        self.drift_period = int(drift_period)
        self.drift_phase = float(drift_phase)
        self._positions: Optional[np.ndarray] = None
        self._velocities: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    #: Mean interacting neighbours per particle at average density (the
    #: cutoff-sphere population; ~64 for liquid-like densities).
    NEIGHBORS_AT_AVG_DENSITY = 64.0

    def work(self, iteration: int) -> float:
        """Cutoff pair-interaction cost model.

        Each particle interacts with the particles inside its cutoff
        sphere; that population scales with *local* density, so a cell
        with ``n`` particles costs

            0.5 · n · (n / avg) · NEIGHBORS_AT_AVG_DENSITY

        pair computations (the 0.5 de-duplicates pairs). Summed over
        cells this is ``0.5·k·N·(1+cv²)`` — independent of the
        decomposition, as real cutoff MD is — while denser cells are
        *quadratically* heavier, which is what creates Mol3D's internal
        load imbalance.

        The particle count ``n`` drifts slowly with ``iteration`` (see
        ``drift_amp``); it is computed here, inline, because this method
        runs once per task.
        """
        n = self.particles * (
            1.0
            + self.drift_amp
            * _sin(_TWO_PI * iteration / self.drift_period + self.drift_phase)
        )
        pairs = 0.5 * n * (n / self.avg_particles) * self.NEIGHBORS_AT_AVG_DENSITY
        return pairs * LJ_FLOPS_PER_PAIR / self.core_speed

    def execute(self, iteration: int) -> None:
        """Advance this cell's particles one velocity-Verlet step.

        Validation mode only; uses a capped particle count so tests stay
        fast while still exercising the real force kernel.
        """
        import numpy as np

        from repro.apps.md_kernels import velocity_verlet

        if self._positions is None:
            rng = resolve_rng(10_000 + self.index)
            n = min(self.particles, 64)
            # low-density random gas: spacing > LJ sigma avoids blow-ups
            self._positions = rng.uniform(0.0, 4.0 * max(n, 1) ** (1 / 3), (n, 3))
            self._velocities = np.zeros((n, 3))
        if self._positions.shape[0] >= 2:
            self._positions, self._velocities = velocity_verlet(
                self._positions, self._velocities, dt=1e-3
            )


class Mol3D(AppModel):
    """Clustered-density classical MD with cell decomposition.

    Parameters
    ----------
    total_particles:
        Particles across all cells (default 48k).
    odf:
        Overdecomposition factor (cells per core).
    density_cv:
        Coefficient of variation of per-cell particle counts (log-normal
        spatial clustering; 0 gives uniform cells).
    core_speed:
        Effective flops/s per core.
    drift_amp, drift_period:
        Temporal drift of per-cell loads (see :class:`MDCellChare`).
    seed:
        RNG seed for the density field.
    """

    name = "mol3d"

    def __init__(
        self,
        total_particles: int = 48_000,
        *,
        odf: int = 8,
        density_cv: float = 0.4,
        core_speed: float = CORE_SPEED_FLOPS,
        drift_amp: float = 0.05,
        drift_period: int = 200,
        seed: int = 42,
    ) -> None:
        check_positive("total_particles", total_particles)
        check_positive("odf", odf)
        check_non_negative("density_cv", density_cv)
        self.total_particles = int(total_particles)
        self.odf = int(odf)
        self.density_cv = float(density_cv)
        self.core_speed = float(core_speed)
        self.drift_amp = float(drift_amp)
        self.drift_period = int(drift_period)
        self.seed = int(seed)

    def build_array(self, num_cores: int) -> ChareArray:
        import numpy as np

        check_positive("num_cores", num_cores)
        num_cells = self.odf * num_cores
        rng = resolve_rng(self.seed)
        if self.density_cv > 0.0:
            # log-normal weights with the requested coefficient of variation
            sigma2 = math.log(1.0 + self.density_cv**2)
            weights = rng.lognormal(mean=-sigma2 / 2.0, sigma=math.sqrt(sigma2), size=num_cells)
        else:
            weights = np.ones(num_cells)
        weights = weights / weights.sum()
        counts = np.floor(weights * self.total_particles).astype(int)
        # distribute the rounding remainder to the largest cells
        shortfall = self.total_particles - int(counts.sum())
        for idx in np.argsort(-weights)[:shortfall]:
            counts[idx] += 1
        avg = self.total_particles / num_cells
        phases = rng.uniform(0.0, 2.0 * math.pi, size=num_cells)
        chares = [
            MDCellChare(
                i,
                int(counts[i]),
                avg_particles=avg,
                core_speed=self.core_speed,
                drift_amp=self.drift_amp,
                drift_period=self.drift_period,
                drift_phase=float(phases[i]),
            )
            for i in range(num_cells)
        ]
        return ChareArray(self.name, chares)

    def comm_bytes(self, num_cores: int) -> float:
        """Ghost-particle exchange: boundary shell of the core's cells.

        Approximated as half a cell's worth of particles per core
        boundary, 24 bytes (positions) each.
        """
        avg_per_core = self.total_particles / max(num_cores, 1)
        return 0.5 * (avg_per_core / self.odf) * 24.0

    def comm_graph(self, num_cores: int):
        """Cell ring: each cell ships ghost positions to its neighbours.

        Edge volume scales with the two cells' populations (denser cells
        export more ghost particles), so communication imbalance tracks
        the density clustering like compute does.
        """
        from repro.runtime.commgraph import CommGraph

        array = self.build_array(num_cores)
        counts = [c.particles for c in array]
        n = len(counts)
        g = CommGraph()
        for i in range(n):
            j = (i + 1) % n
            if n == 2 and i == 1:
                break  # avoid the duplicate edge in a 2-ring
            volume = 0.5 * (counts[i] + counts[j]) * 24.0
            g.add_edge((self.name, i), (self.name, j), volume)
        return g
