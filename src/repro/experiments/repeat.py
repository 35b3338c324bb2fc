"""Repeated runs and summary statistics.

The paper: "All the results shown are averages over three similar runs."
Our simulator is deterministic for a given seed, so "similar runs" are
realised by re-seeding the applications' run-to-run variation sources
(stencil jitter phases, Mol3D's density field) and repeating the whole
Figure-2 cell as a one-cell fig2 sweep. :func:`repeat_case` returns per-metric
mean/std/min/max across seeds plus a formatted table — the reproduction's
analogue of the paper's error-free averaged bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from repro.experiments.figures import Fig2Row, Fig4Row, fig2, fig4
from repro.experiments.tables import format_table
from repro.util import left_sum

__all__ = ["RunStatistics", "RepeatedCase", "summarize", "repeat_case"]


@dataclass(frozen=True)
class RunStatistics:
    """Summary of one metric across repeated runs."""

    values: Tuple[float, ...]
    mean: float
    std: float
    min: float
    max: float

    @property
    def n(self) -> int:
        return len(self.values)


def summarize(values: Sequence[float]) -> RunStatistics:
    """Mean / sample std / extrema of ``values`` (n >= 1)."""
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("summarize needs at least one value")
    mean = left_sum(vals) / len(vals)
    if len(vals) > 1:
        var = left_sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    return RunStatistics(
        values=vals, mean=mean, std=std, min=min(vals), max=max(vals)
    )


#: The Figure-2/4 metrics aggregated by :func:`repeat_case`, read from a
#: cell's Figure 2 and Figure 4 rows.
_METRICS: Dict[str, Callable[[Fig2Row, Fig4Row], float]] = {
    "penalty_nolb": lambda pen, en: pen.nolb,
    "penalty_lb": lambda pen, en: pen.lb,
    "bg_penalty_nolb": lambda pen, en: pen.bg_nolb,
    "bg_penalty_lb": lambda pen, en: pen.bg_lb,
    "power_nolb_w": lambda pen, en: en.power_nolb_w,
    "power_lb_w": lambda pen, en: en.power_lb_w,
    "energy_overhead_nolb": lambda pen, en: en.energy_overhead_nolb,
    "energy_overhead_lb": lambda pen, en: en.energy_overhead_lb,
}


@dataclass(frozen=True)
class RepeatedCase:
    """One Figure-2/4 cell averaged over seeds (the paper's methodology)."""

    app_name: str
    cores: int
    seeds: Tuple[int, ...]
    metrics: Dict[str, RunStatistics]

    def text(self) -> str:
        rows = [
            (name, s.mean, s.std, s.min, s.max)
            for name, s in self.metrics.items()
        ]
        return format_table(
            ["metric", "mean", "std", "min", "max"],
            rows,
            title=(
                f"{self.app_name} on {self.cores} cores — "
                f"averages over {len(self.seeds)} runs (seeds {list(self.seeds)})"
            ),
            float_fmt="{:.2f}",
        )


def repeat_case(
    app_name: str,
    cores: int,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    **spec_kwargs,
) -> RepeatedCase:
    """Run one Figure-2/4 cell once per seed and aggregate.

    Each seed runs a one-cell
    :func:`~repro.experiments.sweep_presets.fig2_sweep_spec` sweep;
    ``spec_kwargs`` are forwarded to it (scale, iterations, lb_period,
    epsilon). Three seeds is the paper's own repetition count.
    """
    if not seeds:
        raise ValueError("repeat_case needs at least one seed")
    cells = []
    for seed in seeds:
        f2 = fig2(apps=(app_name,), core_counts=(cores,), seed=seed, **spec_kwargs)
        (pen,) = f2.rows
        (en,) = fig4(sweep=f2.sweep).rows
        cells.append((pen, en))
    metrics = {
        name: summarize([fn(*cell) for cell in cells])
        for name, fn in _METRICS.items()
    }
    return RepeatedCase(
        app_name=app_name,
        cores=cores,
        seeds=tuple(int(s) for s in seeds),
        metrics=metrics,
    )
