"""Tests for the figure generators (reduced-scale runs).

These run the *same code paths* as the full benchmarks at ~1/4 problem
scale and reduced iteration counts, asserting the directional claims the
paper makes. The full-scale numbers live in benchmarks/ and
EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    fig1,
    fig2,
    fig3,
    fig4,
    headline_reductions,
    paper_app,
    paper_app_names,
    run_sweep,
)
from repro.experiments.sweep_presets import fig2_sweep_spec


def one_cell(app, cores, **spec_kwargs):
    """The Figure 2 and Figure 4 rows of a one-cell fig2 sweep, and the sweep."""
    sweep = run_sweep(fig2_sweep_spec(apps=[app], core_counts=[cores], **spec_kwargs))
    (pen,) = fig2(sweep=sweep).rows
    (en,) = fig4(sweep=sweep).rows
    return pen, en, sweep


@pytest.fixture(scope="module")
def small_case():
    """One moderately sized Figure 2/4 cell, shared across tests."""
    return one_cell("jacobi2d", 16, scale=0.5, iterations=100, lb_period=5)


def test_paper_app_registry():
    assert paper_app_names() == ("jacobi2d", "wave2d", "mol3d")
    for name in paper_app_names():
        model = paper_app(name, scale=0.1)
        assert len(model.build_array(4)) > 4  # overdecomposed
    with pytest.raises(ValueError):
        paper_app("linpack")
    with pytest.raises(ValueError):
        paper_app("jacobi2d", scale=0.0)


class TestFig1:
    def test_interference_stretches_iteration(self):
        r = fig1(scale=0.25, iterations=10, start_after=4)
        # fair CPU sharing: the interfered iteration is ~2x the clean one
        assert r.stretch_factor == pytest.approx(2.0, rel=0.1)

    def test_only_clean_cores_idle(self):
        r = fig1(scale=0.25, iterations=10, start_after=4)
        clean_rows = r.rendering_interfered.splitlines()[1:4]
        interfered_row = r.rendering_interfered.splitlines()[4]
        for row in clean_rows:
            assert "." in row  # idle at the barrier
        assert "." not in interfered_row.split("|")[1]

    def test_iteration_times_step_up_when_bg_starts(self):
        r = fig1(scale=0.25, iterations=10, start_after=4)
        before = r.iteration_times[2]
        after = r.iteration_times[-2]
        assert after > 1.7 * before

    def test_text_contains_both_panels(self):
        r = fig1(scale=0.25, iterations=10)
        assert "(a) no BG task" in r.text()
        assert "(b) BG task" in r.text()


class TestFig2AndFig4:
    def test_lb_reduces_timing_penalty(self, small_case):
        pen, _, _ = small_case
        assert pen.lb < pen.nolb

    def test_nolb_penalty_reflects_fair_sharing(self, small_case):
        # fair 1:1 sharing doubles the interfered cores' compute; the
        # (unstretched) communication share dilutes it somewhat
        pen, _, _ = small_case
        assert 50.0 < pen.nolb < 130.0

    def test_bg_job_benefits_from_lb_too(self, small_case):
        pen, _, _ = small_case
        assert pen.bg_lb < pen.bg_nolb

    def test_lb_draws_more_power_but_less_energy_overhead(self, small_case):
        _, en, _ = small_case
        assert en.power_lb_w > en.power_nolb_w
        assert en.energy_overhead_lb < en.energy_overhead_nolb

    def test_penalty_decreases_with_cores(self):
        c8, _, _ = one_cell("jacobi2d", 8, scale=0.5, iterations=100)
        c16, _, _ = one_cell("jacobi2d", 16, scale=0.5, iterations=100)
        assert c16.lb < c8.lb

    def test_mol3d_bias_inflates_nolb_penalty(self):
        mol, _, _ = one_cell("mol3d", 8, scale=0.5, iterations=40)
        jac, _, _ = one_cell("jacobi2d", 8, scale=0.5, iterations=40)
        # the OS preference to the BG job (weight 4) hits Mol3D much harder
        assert mol.nolb > 1.5 * jac.nolb
        # and shields the BG job itself
        assert mol.bg_nolb < jac.bg_nolb

    def test_fig2_fig4_share_matrix(self):
        sweep = run_sweep(
            fig2_sweep_spec(
                apps=["jacobi2d"], core_counts=(8,), scale=0.25, iterations=30
            )
        )
        f2 = fig2(sweep=sweep)
        f4 = fig4(sweep=sweep)
        assert f2.sweep is sweep and f4.sweep is sweep
        assert len(f2.rows) == 1 and len(f4.rows) == 1
        assert "Figure 2" in f2.text()
        assert "Figure 4" in f4.text()

    def test_headline_claim_on_small_matrix(self, small_case):
        _, _, sweep = small_case
        rows = headline_reductions(sweep)
        assert len(rows) == 1
        assert rows[0].meets_claim  # >= 5% reduction in both metrics

    def test_headline_zero_baseline_does_not_crash(self):
        # tiny --scale runs can round the noLB penalty to exactly zero;
        # the reduction is then 0% (nothing to reduce), never a crash
        from repro.experiments.figures import _reduction_percent

        assert _reduction_percent(0.0, 0.0) == 0.0
        assert _reduction_percent(3.0, 0.0) == 0.0
        assert _reduction_percent(5.0, 10.0) == 50.0


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3(scale=0.25, lb_period=4)

    def test_five_phases(self, result):
        assert len(result.phase_names) == 5
        assert len(result.renderings) == 5

    def test_rebalancing_recovers_iteration_time(self, result):
        a, b, c, d, e = result.phase_mean_iteration
        assert b < 0.85 * a  # balancing while BG on core1 helps
        assert e < 0.9 * d  # and again when BG moved to core3
        assert c < b  # interference-free phase is fastest

    def test_objects_drain_and_return(self, result):
        o1 = result.phase_objects_core1
        o3 = result.phase_objects_core3
        assert o1[1] < o1[0]  # drained while interfered
        assert o1[2] > o1[1]  # returned once the hog left
        assert o3[4] < o3[3]  # drained when the hog moved to core3

    def test_text_rendering(self, result):
        text = result.text()
        assert "Figure 3" in text
        for name in result.phase_names:
            assert name in text
