"""Tests for the repeated-run (averaging) methodology."""

import pytest

from repro.experiments import RunStatistics, paper_app, repeat_case, summarize


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert s.min == 1.0 and s.max == 3.0
        assert s.n == 3

    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSeededVariation:
    def test_different_seeds_produce_different_work(self):
        a = paper_app("jacobi2d", 0.1, seed=0).build_array(2)
        b = paper_app("jacobi2d", 0.1, seed=1).build_array(2)
        assert [c.work(5) for c in a] != [c.work(5) for c in b]

    def test_same_seed_is_reproducible(self):
        a = paper_app("wave2d", 0.1, seed=3).build_array(2)
        b = paper_app("wave2d", 0.1, seed=3).build_array(2)
        assert [c.work(5) for c in a] == [c.work(5) for c in b]

    def test_mol3d_seed_changes_density(self):
        a = paper_app("mol3d", 0.1, seed=0).build_array(2)
        b = paper_app("mol3d", 0.1, seed=1).build_array(2)
        assert [c.particles for c in a] != [c.particles for c in b]


class TestRepeatCase:
    @pytest.fixture(scope="class")
    def repeated(self):
        return repeat_case(
            "jacobi2d", 8, seeds=(0, 1), scale=0.25, iterations=30
        )

    def test_all_metrics_present(self, repeated):
        expected = {
            "penalty_nolb",
            "penalty_lb",
            "bg_penalty_nolb",
            "bg_penalty_lb",
            "power_nolb_w",
            "power_lb_w",
            "energy_overhead_nolb",
            "energy_overhead_lb",
        }
        assert set(repeated.metrics) == expected
        for s in repeated.metrics.values():
            assert isinstance(s, RunStatistics)
            assert s.n == 2

    def test_means_within_extremes(self, repeated):
        for s in repeated.metrics.values():
            assert s.min <= s.mean <= s.max

    def test_text_table(self, repeated):
        text = repeated.text()
        assert "averages over 2 runs" in text
        assert "penalty_nolb" in text

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            repeat_case("jacobi2d", 8, seeds=())
