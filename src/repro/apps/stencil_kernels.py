"""Vectorised stencil kernels (the real numerics behind Jacobi2D/Wave2D).

These are genuine NumPy implementations — fully vectorised, no Python
loops over cells, in-place where the algorithm allows (per the
scientific-Python optimisation guidance: vectorise, avoid copies, keep
arrays contiguous). They serve two purposes:

1. **validation** — unit tests check convergence/energy behaviour, so the
   applications in :mod:`repro.apps` are backed by correct math rather
   than opaque cost constants;
2. **optional execution** — a :class:`~repro.runtime.runtime.Runtime`
   built with ``run_kernels=True`` runs them inside chare entry methods.

Flop counts per cell (used by the cost models):

* Jacobi 5-point update: 4 adds + 1 multiply ≈ :data:`JACOBI_FLOPS_PER_CELL`.
* Wave2D leapfrog update: Laplacian (4 adds + 1 mul) + time integration
  (3 ops) ≈ :data:`WAVE_FLOPS_PER_CELL`.

Both counts are defined in :mod:`repro.apps.base`, so the cost models
import without NumPy; this module, which needs it, is imported only by
``execute()``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.base import JACOBI_FLOPS_PER_CELL, WAVE_FLOPS_PER_CELL

__all__ = [
    "JACOBI_FLOPS_PER_CELL",
    "WAVE_FLOPS_PER_CELL",
    "jacobi_step",
    "jacobi_residual",
    "wave_step",
    "wave_energy",
]


def jacobi_step(grid: np.ndarray, out: np.ndarray) -> None:
    """One Jacobi sweep on the interior of ``grid`` into ``out``.

    Boundary values are carried over unchanged (Dirichlet conditions live
    in the boundary cells). ``out`` must not alias ``grid``.
    """
    if grid.shape != out.shape or grid.ndim != 2:
        raise ValueError("grid and out must be equal-shaped 2D arrays")
    if grid.shape[0] < 3 or grid.shape[1] < 3:
        raise ValueError("grid must be at least 3x3")
    if out is grid:
        raise ValueError("out must not alias grid (Jacobi is not in-place)")
    out[...] = grid
    # vectorised 5-point average over the interior — views, not copies
    out[1:-1, 1:-1] = 0.25 * (
        grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
    )


def jacobi_residual(grid: np.ndarray) -> float:
    """Max-norm residual ``max |u - avg(neighbours)|`` on the interior."""
    interior = grid[1:-1, 1:-1]
    avg = 0.25 * (
        grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
    )
    return float(np.max(np.abs(interior - avg))) if interior.size else 0.0


def wave_step(
    u_prev: np.ndarray, u_curr: np.ndarray, courant2: float = 0.25
) -> np.ndarray:
    """One leapfrog step of the 2D wave equation.

    ``u_next = 2 u - u_prev + c² Δt²/Δx² · laplacian(u)`` on the interior,
    with reflecting (zero) boundaries. ``courant2`` is ``(c Δt/Δx)²`` and
    must satisfy the CFL bound (≤ 0.5 in 2D) for stability.

    Returns the new field; callers rotate ``(u_prev, u_curr) ->
    (u_curr, u_next)``.
    """
    if u_prev.shape != u_curr.shape or u_curr.ndim != 2:
        raise ValueError("fields must be equal-shaped 2D arrays")
    if not 0.0 < courant2 <= 0.5:
        raise ValueError(f"courant2 must be in (0, 0.5], got {courant2}")
    u_next = np.zeros_like(u_curr)
    lap = (
        u_curr[:-2, 1:-1]
        + u_curr[2:, 1:-1]
        + u_curr[1:-1, :-2]
        + u_curr[1:-1, 2:]
        - 4.0 * u_curr[1:-1, 1:-1]
    )
    u_next[1:-1, 1:-1] = (
        2.0 * u_curr[1:-1, 1:-1] - u_prev[1:-1, 1:-1] + courant2 * lap
    )
    return u_next


def wave_energy(u_prev: np.ndarray, u_curr: np.ndarray) -> float:
    """Discrete energy ~ kinetic + potential (conserved by leapfrog).

    Used by tests as a stability invariant: for a CFL-stable step the
    energy stays bounded (and is nearly constant away from boundaries).
    """
    vel = u_curr - u_prev
    gx = np.diff(u_curr, axis=0)
    gy = np.diff(u_curr, axis=1)
    return float(0.5 * np.sum(vel * vel) + 0.25 * (np.sum(gx * gx) + np.sum(gy * gy)))
