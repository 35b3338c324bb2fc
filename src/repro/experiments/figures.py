"""Generators for every figure in the paper's evaluation (§V).

The paper has no numbered tables; its results are Figures 1–4:

* :func:`fig1` — Wave2D on 4 cores, a 1-core interfering job appearing on
  the last core mid-run, no load balancing: per-core timelines of a clean
  and an interfered iteration (paper Figure 1 a/b).
* :func:`fig2` — timing penalty (%) of Jacobi2D / Wave2D / Mol3D and of
  the 2-core background job, with and without the interference-aware
  balancer, across core counts (paper Figure 2 a/b/c).
* :func:`fig3` — Wave2D on 4 cores with the balancer on and interference
  that arrives on core 1, leaves, then arrives on core 3: timelines of
  the five phases (paper Figure 3 a–e).
* :func:`fig4` — average power (W) and normalised energy overhead (%) for
  the same runs as Figure 2 (paper Figure 4 a/b/c).
* :func:`headline_reductions` — the paper's abstract-level claim: load
  balancing cuts the timing penalty and the energy overhead by at least
  5 % for every application (our reproduction typically far exceeds it).

Figures 2 and 4 and the headline claim read one sweep: the points of
:func:`~repro.experiments.sweep_presets.fig2_sweep_spec`, five runs per
(app, cores) cell. This module only turns that sweep into tables.

Every generator takes a ``scale`` knob (grid size / particle count
multiplier) so the identical code path runs both as a quick test and as
the full-size benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps import Wave2D
from repro.cluster.background import Interferer
from repro.cluster.cluster import Cluster
from repro.core.interference import RefineVMInterferenceLB
from repro.core.policies import LBPolicy
from repro.experiments.sweep import SweepResult, run_sweep
from repro.experiments.sweep_presets import (
    fig2_rows_from_sweep,
    fig2_sweep_spec,
    fig4_rows_from_sweep,
)
from repro.experiments.tables import format_table
from repro.projections import extract_timelines, render_timelines
from repro.sim.engine import SimulationEngine
from repro.util import left_sum

__all__ = [
    "Fig1Result",
    "fig1",
    "Fig2Row",
    "Fig2Result",
    "fig2",
    "Fig3Result",
    "fig3",
    "Fig4Row",
    "Fig4Result",
    "fig4",
    "HeadlineRow",
    "headline_reductions",
]


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig1Result:
    """Reproduction of Figure 1 (clean vs interfered timelines)."""

    clean_iteration: int
    interfered_iteration: int
    clean_duration: float
    interfered_duration: float
    rendering_clean: str
    rendering_interfered: str
    iteration_times: Tuple[float, ...]

    @property
    def stretch_factor(self) -> float:
        """Interfered / clean iteration duration (paper: ~2x)."""
        return self.interfered_duration / self.clean_duration

    def text(self) -> str:
        """Human-readable report (both timelines + the stretch factor)."""
        return "\n".join(
            [
                f"(a) no BG task — iteration {self.clean_iteration}, "
                f"{self.clean_duration:.4f}s",
                self.rendering_clean,
                "",
                f"(b) BG task on last core — iteration "
                f"{self.interfered_iteration}, {self.interfered_duration:.4f}s "
                f"({self.stretch_factor:.2f}x longer)",
                self.rendering_interfered,
            ]
        )


def fig1(
    *,
    scale: float = 1.0,
    iterations: int = 12,
    start_after: int = 4,
    width: int = 72,
) -> Fig1Result:
    """Reproduce Figure 1: one interfering task unbalances a 4-core run.

    Wave2D on 4 cores, no load balancing; a 1-core compute-bound job
    appears on the last core (the paper's "Core#4") after ``start_after``
    iterations and stays until the end.
    """
    engine = SimulationEngine()
    cluster = Cluster(engine, num_nodes=1, cores_per_node=4)
    model = Wave2D(grid_size=max(int(1024 * scale * 4), 64), odf=4, jitter_amp=0.0)
    rt = model.instantiate(engine, cluster, [0, 1, 2, 3], tracing=True)
    hog = Interferer(engine, cluster.core(3), start=None, owner="bg:1core-job")
    rt.on_iteration(
        lambda r, it: hog.activate() if it == start_after - 1 else None
    )
    rt.start(iterations)
    engine.run()

    clean_it = max(start_after - 2, 0)
    interfered_it = iterations - 2
    tl_clean = extract_timelines(rt.trace, [0, 1, 2, 3], iterations=(clean_it, clean_it))
    tl_bad = extract_timelines(
        rt.trace, [0, 1, 2, 3], iterations=(interfered_it, interfered_it)
    )
    times = rt.stats.iteration_times
    return Fig1Result(
        clean_iteration=clean_it,
        interfered_iteration=interfered_it,
        clean_duration=times[clean_it],
        interfered_duration=times[interfered_it],
        rendering_clean=render_timelines(tl_clean, width=width),
        rendering_interfered=render_timelines(tl_bad, width=width),
        iteration_times=tuple(times),
    )


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Row:
    """One bar group of Figure 2: an (app, cores) cell's four series."""

    app_name: str
    cores: int
    nolb: float
    lb: float
    bg_nolb: float
    bg_lb: float


@dataclass(frozen=True)
class Fig2Result:
    """Reproduction of Figure 2 (timing penalties)."""

    rows: Tuple[Fig2Row, ...]
    sweep: SweepResult

    def text(self) -> str:
        return format_table(
            ["app", "cores", "noLB %", "LB %", "BG noLB %", "BG LB %"],
            [
                (r.app_name, r.cores, r.nolb, r.lb, r.bg_nolb, r.bg_lb)
                for r in self.rows
            ],
            title="Figure 2 — timing penalty vs. interference (percent)",
        )


def fig2(*, sweep: Optional[SweepResult] = None, **spec_kwargs) -> Fig2Result:
    """Reproduce Figure 2 from the fig2 sweep's points.

    Without ``sweep``, runs :func:`~repro.experiments.sweep_presets.fig2_sweep_spec`
    (``spec_kwargs``: ``apps``, ``core_counts``, ``scale``, ``iterations``,
    ``lb_period``, ``epsilon``, ``seed``) serially with no cache. Pass
    ``sweep`` to reuse Figure 4's runs or a parallel, cached sweep.
    """
    if sweep is None:
        sweep = run_sweep(fig2_sweep_spec(**spec_kwargs))
    rows = tuple(Fig2Row(*row) for row in fig2_rows_from_sweep(sweep))
    return Fig2Result(rows=rows, sweep=sweep)


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig3Result:
    """Reproduction of Figure 3 (balancer tracking moving interference).

    ``phases`` maps the five paper panels (a–e) to mean iteration time
    and the interfered core's object count in that phase.
    """

    phase_names: Tuple[str, ...]
    phase_mean_iteration: Tuple[float, ...]
    phase_objects_core1: Tuple[float, ...]
    phase_objects_core3: Tuple[float, ...]
    renderings: Tuple[str, ...]
    iteration_times: Tuple[float, ...]

    def text(self) -> str:
        lines = ["Figure 3 — balancer reacting to moving interference"]
        for name, t, o1, o3, render in zip(
            self.phase_names,
            self.phase_mean_iteration,
            self.phase_objects_core1,
            self.phase_objects_core3,
            self.renderings,
        ):
            lines.append("")
            lines.append(
                f"[{name}] mean iteration {t:.4f}s, "
                f"objects on core1={o1:.1f}, core3={o3:.1f}"
            )
            lines.append(render)
        return "\n".join(lines)


def fig3(
    *,
    scale: float = 1.0,
    lb_period: int = 4,
    width: int = 72,
) -> Fig3Result:
    """Reproduce Figure 3: interference on core 1, then gone, then core 3.

    Wave2D on 4 cores with the interference-aware balancer. The phases
    are driven at iteration boundaries (each phase spans ``3*lb_period``
    iterations, so the balancer gets several windows to converge):

    a. iterations [P0..) — hog on core 1, mapping still static;
    b. after the next LB steps — rebalanced around core 1;
    c. hog leaves — balancer migrates objects *back*;
    d. hog appears on core 3 — imbalance again;
    e. after further LB steps — rebalanced around core 3.
    """
    engine = SimulationEngine()
    cluster = Cluster(engine, num_nodes=1, cores_per_node=4)
    model = Wave2D(grid_size=max(int(1024 * scale * 4), 64), odf=4, jitter_amp=0.0)
    rt = model.instantiate(
        engine,
        cluster,
        [0, 1, 2, 3],
        tracing=True,
        balancer=RefineVMInterferenceLB(0.05),
        policy=LBPolicy(period_iterations=lb_period),
    )
    span = 3 * lb_period
    total = 5 * span
    hog1 = Interferer(engine, cluster.core(1), start=None, owner="bg:hog1")
    hog3 = Interferer(engine, cluster.core(3), start=None, owner="bg:hog3")
    objects_on = {1: [], 3: []}

    def driver(r, it):
        if it == 0:
            hog1.activate()
        elif it == 2 * span:
            hog1.deactivate()
        elif it == 3 * span:
            hog3.activate()
        objects_on[1].append(sum(1 for c in r.mapping.values() if c == 1))
        objects_on[3].append(sum(1 for c in r.mapping.values() if c == 3))

    rt.on_iteration(driver)
    rt.start(total)
    engine.run()

    phase_names = (
        "a: BG on core1, unbalanced",
        "b: BG on core1, rebalanced",
        "c: BG gone, restored",
        "d: BG on core3, unbalanced",
        "e: BG on core3, rebalanced",
    )
    # representative windows: the first LB period of a phase shows the
    # unbalanced state; the last shows the converged state.
    windows = [
        (1, lb_period - 1),
        (span + lb_period, 2 * span - 1),
        (2 * span + lb_period, 3 * span - 1),
        (3 * span, 3 * span + lb_period - 1),
        (4 * span + lb_period, 5 * span - 2),
    ]
    times = rt.stats.iteration_times
    mean_iter, obj1, obj3, renders = [], [], [], []
    for lo, hi in windows:
        mean_iter.append(left_sum(times[lo : hi + 1]) / (hi - lo + 1))
        obj1.append(sum(objects_on[1][lo : hi + 1]) / (hi - lo + 1))
        obj3.append(sum(objects_on[3][lo : hi + 1]) / (hi - lo + 1))
        tls = extract_timelines(rt.trace, [0, 1, 2, 3], iterations=(hi - 1, hi))
        renders.append(render_timelines(tls, width=width))
    return Fig3Result(
        phase_names=phase_names,
        phase_mean_iteration=tuple(mean_iter),
        phase_objects_core1=tuple(obj1),
        phase_objects_core3=tuple(obj3),
        renderings=tuple(renders),
        iteration_times=tuple(times),
    )


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig4Row:
    """One bar group of Figure 4: power (W) and energy overhead (%)."""

    app_name: str
    cores: int
    power_nolb_w: float
    power_lb_w: float
    energy_overhead_nolb: float
    energy_overhead_lb: float


@dataclass(frozen=True)
class Fig4Result:
    """Reproduction of Figure 4 (power and normalised energy)."""

    rows: Tuple[Fig4Row, ...]
    sweep: SweepResult

    def text(self) -> str:
        return format_table(
            [
                "app",
                "cores",
                "noLB power W",
                "LB power W",
                "noLB energy %",
                "LB energy %",
            ],
            [
                (
                    r.app_name,
                    r.cores,
                    r.power_nolb_w,
                    r.power_lb_w,
                    r.energy_overhead_nolb,
                    r.energy_overhead_lb,
                )
                for r in self.rows
            ],
            title="Figure 4 — power draw and energy overhead",
        )


def fig4(*, sweep: Optional[SweepResult] = None, **spec_kwargs) -> Fig4Result:
    """Reproduce Figure 4 from the fig2 sweep's points.

    The same runs as Figure 2; ``sweep`` and ``spec_kwargs`` as in
    :func:`fig2`.
    """
    if sweep is None:
        sweep = run_sweep(fig2_sweep_spec(**spec_kwargs))
    rows = tuple(Fig4Row(*row) for row in fig4_rows_from_sweep(sweep))
    return Fig4Result(rows=rows, sweep=sweep)


# ---------------------------------------------------------------------------
# headline claim
# ---------------------------------------------------------------------------


#: The paper's claimed minimum reduction: "our scheme reduces the timing
#: penalty and energy overhead associated with interfering jobs by at
#: least 5%" (abstract; reiterated in §VI).
PAPER_CLAIM_PERCENT = 5.0


@dataclass(frozen=True)
class HeadlineRow:
    """Worst-case reductions for one application across core counts."""

    app_name: str
    min_penalty_reduction: float
    min_energy_reduction: float

    @property
    def meets_claim(self) -> bool:
        """The paper's >= 5 % reduction claim (typically far exceeded)."""
        return (
            self.min_penalty_reduction >= PAPER_CLAIM_PERCENT
            and self.min_energy_reduction >= PAPER_CLAIM_PERCENT
        )


def _reduction_percent(lb: float, nolb: float) -> float:
    """``100 * (1 - LB / noLB)``, or 0.0 when the noLB baseline is ~0.

    A zero baseline means there was no overhead to reduce (tiny ``--scale``
    runs where interference rounds to nothing), so no reduction can be
    demonstrated — report 0 % rather than dividing by zero.
    """
    if nolb <= 0.0:
        return 0.0
    return 100.0 * (1.0 - lb / nolb)


def headline_reductions(sweep: SweepResult) -> List[HeadlineRow]:
    """Check the abstract's claim on a Figure 2/4 sweep.

    Reduction = ``100 * (1 - LB / noLB)`` for the timing penalty and the
    energy overhead; the row reports each application's *worst* core
    count.  Cases whose noLB baseline is zero contribute a 0 % reduction
    (nothing to reduce at that scale) instead of crashing.
    """
    penalties = fig2(sweep=sweep).rows
    energies = fig4(sweep=sweep).rows
    rows = []
    for app in sorted({r.app_name for r in penalties}):
        pen = min(
            _reduction_percent(r.lb, r.nolb)
            for r in penalties
            if r.app_name == app
        )
        en = min(
            _reduction_percent(r.energy_overhead_lb, r.energy_overhead_nolb)
            for r in energies
            if r.app_name == app
        )
        rows.append(
            HeadlineRow(
                app_name=app, min_penalty_reduction=pen, min_energy_reduction=en
            )
        )
    return rows
