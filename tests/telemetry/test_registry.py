"""Unit tests for the metrics registry and its no-op fast path."""

import tracemalloc

import pytest

from repro.telemetry.registry import (
    DEFAULT_DURATION_BUCKETS_S,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        c = Counter("migrations")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_is_last_write_wins(self):
        g = Gauge("util")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75

    def test_histogram_buckets_and_mean(self):
        h = Histogram("d", bounds=[1.0, 10.0])
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # 0.5 and 1.0 land at or below the first edge (bisect_left), 5.0
        # in the second bucket, 100.0 in the overflow
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.mean == pytest.approx(106.5 / 4)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="sorted, non-empty"):
            Histogram("d", bounds=[])
        with pytest.raises(ValueError, match="sorted, non-empty"):
            Histogram("d", bounds=[2.0, 1.0])


class TestHistogramQuantiles:
    def test_interpolates_within_the_target_bucket(self):
        h = Histogram("d", bounds=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # rank 2 of 4 lands at the end of the (1, 2] bucket's first half
        assert h.quantile(0.5) == pytest.approx(1.5)
        # the first bucket interpolates from 0, not -inf
        assert 0.0 < h.quantile(0.1) <= 1.0

    def test_overflow_bucket_reports_the_last_bound(self):
        h = Histogram("d", bounds=[1.0, 10.0])
        h.observe(1000.0)
        assert h.quantile(0.99) == 10.0

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("d", bounds=[1.0]).quantile(0.5) == 0.0

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Histogram("d", bounds=[1.0]).quantile(2.0)

    def test_percentiles_uses_the_repo_standard_quantiles(self):
        h = Histogram("d", bounds=[1.0, 2.0])
        h.observe(0.5)
        p = h.percentiles()
        assert set(p) == {"p50", "p90", "p99"}
        assert p["p50"] == h.quantile(0.5)

    def test_snapshot_carries_percentile_estimates(self):
        reg = MetricsRegistry()
        for v in (0.5, 1.5, 3.0):
            reg.histogram("lat", bounds=[1.0, 2.0, 4.0]).observe(v)
        snap = reg.snapshot()["histograms"]["lat"]
        assert snap["percentiles"] == reg.histogram("lat").percentiles()
        assert snap["percentiles"]["p50"] <= snap["percentiles"]["p99"]


class TestRegistry:
    def test_instruments_are_memoised_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert reg.counter("a") is not reg.counter("other")

    def test_default_histogram_bounds(self):
        reg = MetricsRegistry()
        assert reg.histogram("iter").bounds == DEFAULT_DURATION_BUCKETS_S

    def test_snapshot_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("z").inc(2)
        reg.counter("a").inc()
        reg.gauge("g").set(0.5)
        reg.histogram("h", bounds=[1.0]).observe(0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["z"] == 2.0
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["count"] == 1

    def test_disabled_registry_hands_out_shared_null_singletons(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("x") is _NULL_COUNTER
        assert reg.counter("y") is _NULL_COUNTER
        assert reg.gauge("x") is _NULL_GAUGE
        assert reg.histogram("x") is _NULL_HISTOGRAM
        assert NULL_REGISTRY.counter("anything") is _NULL_COUNTER

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_path_allocates_nothing_per_event(self):
        """The disabled fast path must not allocate per event."""
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("warm")  # warm the lookup path
        counter.inc()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(1000):
                reg.counter("warm").inc(1.0)
                reg.gauge("warm").set(0.5)
                reg.histogram("warm").observe(0.1)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # zero net allocation from 3000 no-op events (tracemalloc's own
        # bookkeeping can jitter a few hundred bytes; 3000 boxed floats
        # would be tens of kilobytes)
        assert after - before < 512
