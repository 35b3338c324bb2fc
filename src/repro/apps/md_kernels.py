"""Vectorised molecular-dynamics kernels backing Mol3D.

A minimal but genuine classical-MD core: Lennard-Jones pair forces
computed with NumPy broadcasting (no Python pair loops) and a velocity-
Verlet integrator. Mol3D's cost model charges
:data:`LJ_FLOPS_PER_PAIR` per interacting pair; these kernels let tests
anchor that model to real physics (energy conservation, force symmetry).
The count is defined in :mod:`repro.apps.base`, so Mol3D's cost model
imports without NumPy; this module is imported only by ``execute()``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.base import LJ_FLOPS_PER_PAIR

__all__ = [
    "LJ_FLOPS_PER_PAIR",
    "lj_forces",
    "lj_potential",
    "velocity_verlet",
]


def _pair_displacements(pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs displacement vectors and squared distances (broadcast)."""
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("pos must be (n, 3)")
    disp = pos[:, None, :] - pos[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", disp, disp)
    return disp, r2


def lj_forces(
    pos: np.ndarray, epsilon: float = 1.0, sigma: float = 1.0
) -> np.ndarray:
    """Lennard-Jones forces on each particle (all-pairs, vectorised).

    ``F_i = Σ_j 24 ε [2 (σ/r)¹² − (σ/r)⁶] r̂ / r`` — Newton's third law
    holds by construction (the pair matrix is antisymmetric).
    """
    n = pos.shape[0]
    if n < 2:
        return np.zeros_like(pos)
    disp, r2 = _pair_displacements(pos)
    np.fill_diagonal(r2, np.inf)  # no self-interaction
    inv_r2 = (sigma * sigma) / r2
    inv_r6 = inv_r2**3
    # scalar magnitude / r2 factor: 24 eps (2 s12 - s6) / r^2
    mag = 24.0 * epsilon * (2.0 * inv_r6 * inv_r6 - inv_r6) / r2
    return np.einsum("ij,ijk->ik", mag, disp)


def lj_potential(pos: np.ndarray, epsilon: float = 1.0, sigma: float = 1.0) -> float:
    """Total Lennard-Jones potential energy (each pair counted once)."""
    n = pos.shape[0]
    if n < 2:
        return 0.0
    _, r2 = _pair_displacements(pos)
    iu = np.triu_indices(n, k=1)
    inv_r6 = ((sigma * sigma) / r2[iu]) ** 3
    return float(np.sum(4.0 * epsilon * (inv_r6 * inv_r6 - inv_r6)))


def velocity_verlet(
    pos: np.ndarray,
    vel: np.ndarray,
    dt: float,
    *,
    epsilon: float = 1.0,
    sigma: float = 1.0,
    mass: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """One velocity-Verlet step; returns ``(pos_next, vel_next)``."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    f0 = lj_forces(pos, epsilon, sigma)
    pos_next = pos + vel * dt + 0.5 * (f0 / mass) * dt * dt
    f1 = lj_forces(pos_next, epsilon, sigma)
    vel_next = vel + 0.5 * ((f0 + f1) / mass) * dt
    return pos_next, vel_next
