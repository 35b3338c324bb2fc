"""FIG2 — reproduce Figure 2: timing penalty with and without LB.

For each application (Jacobi2D, Wave2D, Mol3D) and core count
(8, 16, 24, 32): the application's timing penalty under a 2-core Wave2D
background job, the same with the interference-aware balancer, and the
background job's own penalties.

Shape assertions (the paper's qualitative findings):

* the balancer cuts the application penalty everywhere;
* the LB penalty falls as cores grow ("more cores to which the work of
  the overloaded core can be distributed");
* Mol3D's no-LB penalty is far larger (the OS favours the BG job there)
  while its BG penalty is far smaller;
* the balancer also relieves the background job for Jacobi2D/Wave2D.
"""

from benchmarks.conftest import (
    BENCH_ITERATIONS,
    BENCH_SCALE,
    write_artifact,
)
from repro.experiments import PAPER_CORE_COUNTS, fig2


def _cells(sweep):
    """``(app, cores) -> Fig2Row`` of the Figure 2/4 sweep."""
    return {(r.app_name, r.cores): r for r in fig2(sweep=sweep).rows}


def test_fig2_regenerate(fig24_sweep, benchmark):
    res = benchmark.pedantic(
        fig2, kwargs=dict(sweep=fig24_sweep), rounds=1, iterations=1
    )
    write_artifact("fig2_timing_penalty", res.text())
    by_app = {}
    for row in res.rows:
        by_app.setdefault(row.app_name, []).append(row)
    for app, rows in by_app.items():
        rows.sort(key=lambda r: r.cores)
        for r in rows:
            assert r.lb < r.nolb, f"{app} P={r.cores}: LB did not help"
        # LB penalty decreases with core count (allow small wiggle)
        lbs = [r.lb for r in rows]
        assert lbs[-1] < lbs[0], f"{app}: LB penalty did not fall with cores"


def test_fig2_mol3d_shows_os_preference(fig24_sweep):
    cells = _cells(fig24_sweep)
    for cores in PAPER_CORE_COUNTS:
        mol = cells[("mol3d", cores)]
        jac = cells[("jacobi2d", cores)]
        assert mol.nolb > 1.5 * jac.nolb
        assert mol.bg_nolb < jac.bg_nolb


def test_fig2_bg_job_relieved_by_lb(fig24_sweep):
    cells = _cells(fig24_sweep)
    for app in ("jacobi2d", "wave2d"):
        for cores in PAPER_CORE_COUNTS:
            case = cells[(app, cores)]
            assert case.bg_lb < case.bg_nolb


def test_fig2_single_case_cost_jacobi32(benchmark):
    """Wall-clock cost of one full Figure-2 cell (5 simulated runs)."""
    benchmark.pedantic(
        fig2,
        kwargs=dict(
            apps=["jacobi2d"],
            core_counts=[32],
            scale=BENCH_SCALE,
            iterations=BENCH_ITERATIONS,
        ),
        rounds=1,
        iterations=1,
    )
