"""Canonical sweeps expressed as :class:`~repro.experiments.sweep.SweepSpec`.

These port the paper's evaluation loops onto the parallel sweep engine:

* :func:`fig2_sweep_spec` — the full Figure 2/4 run matrix (every
  (app, cores) cell's five runs: base, balanced base, interfered noLB,
  interfered LB, and the background job alone) as independent sweep
  points. It is the only code that builds a Figure 2/4 cell: the
  figure generators (``fig2``, ``fig4``, the headline check,
  ``repeat_case`` and ``repro demo``) run it serially with no cache,
  and ``repro sweep --preset fig2`` adds workers and the result cache.
  :func:`fig2_rows_from_sweep` / :func:`fig4_rows_from_sweep` reduce the
  summaries to the paper's penalty and energy rows.
* :func:`ablation_epsilon_spec` / :func:`ablation_period_spec` — the
  ABL-EPS and ABL-PERIOD benchmark sweeps (interference run with the
  paper's balancer, sweeping ε / the LB period).
* :func:`smoke_spec` — a tiny 4-scenario sweep for CI.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.penalty import percent_increase
from repro.experiments.sweep import (
    PAPER_CORE_COUNTS,
    SweepResult,
    SweepSpec,
    background_iterations,
    paper_app_names,
)

__all__ = [
    "fig2_sweep_spec",
    "fig2_cells",
    "fig2_rows_from_sweep",
    "fig4_rows_from_sweep",
    "ablation_epsilon_spec",
    "ablation_period_spec",
    "smoke_spec",
]

#: The five runs behind one Figure 2/4 cell (matrix variant -> overrides).
_FIG2_VARIANTS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("base", {}),
    ("base_lb", {"balancer": "refine-vm"}),
    ("nolb", {"bg": True}),
    ("lb", {"bg": True, "balancer": "refine-vm"}),
)


def fig2_sweep_spec(
    *,
    apps: Optional[Sequence[str]] = None,
    core_counts: Optional[Sequence[int]] = None,
    scale: float = 1.0,
    iterations: int = 200,
    lb_period: int = 5,
    epsilon: float = 0.05,
    seed: int = 0,
) -> SweepSpec:
    """The Figure 2/4 matrix as one flat sweep (5 points per cell)."""
    apps = tuple(apps) if apps is not None else paper_app_names()
    core_counts = tuple(core_counts) if core_counts is not None else PAPER_CORE_COUNTS
    base = {
        "scale": scale,
        "iterations": iterations,
        "lb_period": lb_period,
        "epsilon": epsilon,
        "seed": seed,
    }
    points: List[Dict[str, object]] = []
    for app in apps:
        for cores in core_counts:
            cell = {"app": app, "cores": cores}
            for variant, overrides in _FIG2_VARIANTS:
                points.append(
                    {
                        **cell,
                        **overrides,
                        "label": f"{app}/{cores}/{variant}",
                    }
                )
            # the background job alone, sized exactly as the interfered
            # runs of this cell size it
            bg_iters = background_iterations({**base, **cell, "bg": True})
            points.append(
                {
                    "app": "bg",
                    "cores": 2,
                    "iterations": bg_iters,
                    "label": f"{app}/{cores}/bg_alone",
                }
            )
    return SweepSpec(name="fig2", base=base, points=tuple(points))


def fig2_cells(labels: Iterable[str]) -> List[Tuple[str, int]]:
    """The ``(app, cores)`` cells named by Figure 2/4 point labels, in order.

    A cell is named by its ``<app>/<cores>/base`` label. Raises
    ValueError naming the first of a cell's five labels that ``labels``
    lacks, so an incomplete ``fig2`` spec is refused before it runs.
    """
    labels = list(labels)
    have = set(labels)
    cells = []
    for label in labels:
        parts = label.split("/")
        if len(parts) == 3 and parts[2] == "base":
            cell = f"{parts[0]}/{parts[1]}"
            for variant in ("base_lb", "nolb", "lb", "bg_alone"):
                if f"{cell}/{variant}" not in have:
                    raise ValueError(
                        f"Figure 2/4 cell {cell} has no point labelled "
                        f"{cell}/{variant}"
                    )
            cells.append((parts[0], int(parts[1])))
    return cells


def fig2_rows_from_sweep(result: SweepResult) -> List[Tuple[str, int, float, float, float, float]]:
    """Figure 2 penalty rows ``(app, cores, noLB, LB, bg_noLB, bg_LB)``.

    Each variant is compared against the matching baseline, so the
    number isolates *interference*: the noLB run against the unbalanced
    base, the LB run against the *balanced* interference-free run
    (Mol3D has internal imbalance the balancer fixes even without
    interference, and comparing an LB run against an unbalanced base
    would conflate the two effects), and the background job against its
    own run alone.
    """
    rows = []
    for app, cores in fig2_cells(r.label for r in result.results):
        get = lambda variant: result[f"{app}/{cores}/{variant}"]
        base, base_lb = get("base"), get("base_lb")
        nolb, lb, bg_alone = get("nolb"), get("lb"), get("bg_alone")
        rows.append(
            (
                app,
                cores,
                percent_increase(nolb.app_time, base.app_time),
                percent_increase(lb.app_time, base_lb.app_time),
                percent_increase(nolb.bg_time, bg_alone.app_time),
                percent_increase(lb.bg_time, bg_alone.app_time),
            )
        )
    return rows


def fig4_rows_from_sweep(result: SweepResult) -> List[Tuple[str, int, float, float, float, float]]:
    """Figure 4 rows ``(app, cores, noLB W, LB W, noLB energy %, LB energy %)``.

    Energy overheads use the same baselines as the Figure 2 penalties.
    """
    rows = []
    for app, cores in fig2_cells(r.label for r in result.results):
        get = lambda variant: result[f"{app}/{cores}/{variant}"]
        base, base_lb = get("base"), get("base_lb")
        nolb, lb = get("nolb"), get("lb")
        rows.append(
            (
                app,
                cores,
                nolb.avg_power_w,
                lb.avg_power_w,
                percent_increase(nolb.energy_j, base.energy_j),
                percent_increase(lb.energy_j, base_lb.energy_j),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------

#: The ABL-* interference setup (mirrors benchmarks/ablation_common.py).
_ABLATION_BASE: Dict[str, object] = {
    "app": "jacobi2d",
    "cores": 16,
    "scale": 0.5,
    "iterations": 100,
    "bg": True,
    "balancer": "refine-vm",
    "lb_period": 5,
    "bg_weight": 1.0,
}


def ablation_epsilon_spec(
    epsilons: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    **base_overrides: object,
) -> SweepSpec:
    """ABL-EPS: the Eq. (3) slack ε vs run time and migration churn."""
    return SweepSpec(
        name="ablation_epsilon",
        base={**_ABLATION_BASE, **base_overrides},
        axes={"epsilon": list(epsilons)},
    )


def ablation_period_spec(
    periods: Sequence[int] = (2, 5, 10, 25, 50),
    **base_overrides: object,
) -> SweepSpec:
    """ABL-PERIOD: the balancing cadence vs reaction time and overhead."""
    return SweepSpec(
        name="ablation_period",
        base={**_ABLATION_BASE, **base_overrides},
        axes={"lb_period": list(periods)},
    )


def smoke_spec() -> SweepSpec:
    """A 4-scenario sweep small enough for CI (seconds, not minutes)."""
    return SweepSpec(
        name="smoke",
        base={"app": "jacobi2d", "scale": 0.05, "iterations": 10, "bg": True},
        axes={"cores": [4, 8], "balancer": ["none", "refine-vm"]},
    )
