"""FIG4 — reproduce Figure 4: power draw and normalised energy overhead.

Same runs as Figure 2. The paper's findings:

* load-balanced runs draw *more average power* (idle time removed, higher
  CPU utilisation);
* yet consume *less energy* — the 40 W per-node base power makes the
  shorter runtime win;
* the balancer therefore cuts the interference *energy overhead* as well
  as the timing penalty.
"""

from benchmarks.conftest import write_artifact
from repro.experiments import PAPER_CORE_COUNTS, fig4, paper_app_names


def _cells(sweep):
    """``(app, cores) -> Fig4Row`` of the Figure 2/4 sweep."""
    return {(r.app_name, r.cores): r for r in fig4(sweep=sweep).rows}


def test_fig4_regenerate(fig24_sweep, benchmark):
    res = benchmark.pedantic(
        fig4, kwargs=dict(sweep=fig24_sweep), rounds=1, iterations=1
    )
    write_artifact("fig4_power_energy", res.text())
    for row in res.rows:
        assert row.power_lb_w > row.power_nolb_w, (
            f"{row.app_name} P={row.cores}: balanced run should draw more power"
        )
        assert row.energy_overhead_lb < row.energy_overhead_nolb, (
            f"{row.app_name} P={row.cores}: balanced run should waste less energy"
        )


def test_fig4_lb_draws_more_power(fig24_sweep):
    cells = _cells(fig24_sweep)
    for app in paper_app_names():
        for cores in PAPER_CORE_COUNTS:
            case = cells[(app, cores)]
            assert case.power_lb_w > case.power_nolb_w, (
                f"{app} P={cores}: balanced run should draw more power"
            )


def test_fig4_lb_reduces_energy_overhead(fig24_sweep):
    cells = _cells(fig24_sweep)
    for app in paper_app_names():
        for cores in PAPER_CORE_COUNTS:
            case = cells[(app, cores)]
            assert case.energy_overhead_lb < case.energy_overhead_nolb, (
                f"{app} P={cores}: balanced run should waste less energy"
            )


def test_fig4_power_stays_within_model_bounds(fig24_sweep):
    for (app, cores), case in _cells(fig24_sweep).items():
        nodes = (cores + 3) // 4
        assert 40.0 * nodes <= case.power_nolb_w <= 170.0 * nodes
        assert 40.0 * nodes <= case.power_lb_w <= 170.0 * nodes
