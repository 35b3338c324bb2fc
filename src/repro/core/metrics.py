"""Imbalance and migration metrics.

Small pure functions over :class:`~repro.core.database.LBView` used by
tests, benchmarks, and the experiment tables: how unbalanced is a mapping,
does it satisfy the paper's Eq. (3), how much data would a migration set
move.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.database import LBView, Migration
from repro.util import left_sum

__all__ = [
    "max_load",
    "imbalance_ratio",
    "within_epsilon",
    "migration_volume_bytes",
]


def max_load(view: LBView) -> float:
    """Largest per-core total load (task time + O_p)."""
    return max((c.total_load for c in view.cores), default=0.0)


def imbalance_ratio(view: LBView) -> float:
    """``max_load / t_avg`` — 1.0 is perfect balance.

    This is the standard Charm++ imbalance metric; for a tightly coupled
    application it is also the slowdown factor relative to ideal balance.
    """
    t_avg = view.t_avg
    if t_avg <= 0.0:
        return 1.0
    return max_load(view) / t_avg


def within_epsilon(view: LBView, epsilon: float, *, absolute: bool = False) -> bool:
    """Does every core satisfy the paper's Eq. (3)?

    ``|load_p − T_avg| < ε`` for all p, with ε a fraction of T_avg by
    default (absolute seconds when ``absolute=True``).
    """
    t_avg = view.t_avg
    eps = epsilon if absolute else epsilon * t_avg
    return all(abs(c.total_load - t_avg) <= eps for c in view.cores)


def migration_volume_bytes(view: LBView, migrations: Sequence[Migration]) -> float:
    """Total serialised bytes a migration set would transfer."""
    size = {t.chare: t.state_bytes for c in view.cores for t in c.tasks}
    return left_sum(size[m.chare] for m in migrations)
