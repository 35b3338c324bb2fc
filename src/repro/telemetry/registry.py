"""Allocation-free metrics: counters, gauges, fixed-bucket histograms.

The registry is the quantitative half of the telemetry layer: the runtime
and sweep engine increment counters (migrations, bytes moved, LB
overhead), set gauges (per-core utilisation) and observe histograms
(iteration durations) unconditionally at every call site. Whether any of
that costs anything is decided once, at registry construction:

* **enabled** — instruments are tiny ``__slots__`` objects mutating a
  float in place; no dicts, lists, or boxing per event.
* **disabled** — :meth:`MetricsRegistry.counter` & co. hand back shared
  module-level null singletons whose methods are empty. The per-event
  cost is one method call and the per-event allocation count is zero, so
  instrumentation can stay unconditional in hot paths (the same contract
  :class:`~repro.runtime.tracing.TraceLog` offers for events).

Snapshots are plain sorted dicts, so they serialise deterministically and
can be folded into sweep payloads or dumped as JSON.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_DURATION_BUCKETS_S",
    "SUMMARY_QUANTILES",
]

#: The quantiles a histogram snapshot reports.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: Default histogram bucket upper bounds for durations in seconds
#: (geometric, spanning sub-millisecond LB decisions to minute-long
#: iterations; the last bucket is the +Inf overflow).
DEFAULT_DURATION_BUCKETS_S: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)


class Counter:
    """Monotonically increasing value (floats allowed: seconds, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """Last-write-wins value (e.g. a utilisation fraction)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (bounds chosen at creation, never resized).

    ``bounds`` are upper edges of the finite buckets; one overflow bucket
    catches everything beyond the last edge. Observation is a bisect plus
    two in-place adds — no allocation.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty bounds")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: Union[int, float]) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the bucket holding the target rank
        (the Prometheus ``histogram_quantile`` estimator); the first
        bucket interpolates from 0 and the overflow bucket reports its
        lower edge, so estimates never exceed what the bounds can
        resolve. Exact values would need the raw samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0.0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if seen + n >= rank:
                if i >= len(self.bounds):  # overflow: unbounded above
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                return lo + (hi - lo) * max(rank - seen, 0.0) / n
            seen += n
        return self.bounds[-1]  # pragma: no cover - rank <= count always

    def percentiles(self) -> Dict[str, float]:
        """The repo-standard p50/p90/p99 estimates for this histogram."""
        return {
            f"p{int(q * 100)}": self.quantile(q) for q in SUMMARY_QUANTILES
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: Union[int, float]) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: Union[int, float]) -> None:
        pass


#: Shared no-op instruments handed out by every disabled registry.
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named instruments for one run (or one sweep).

    Parameters
    ----------
    enabled:
        When False, every factory returns a shared null instrument and
        :meth:`snapshot` is always empty — the no-op path allocates
        nothing per event.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument factories (memoised per name)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER  # type: ignore[return-value]
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE  # type: ignore[return-value]
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM  # type: ignore[return-value]
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_DURATION_BUCKETS_S
            )
        return inst

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All instrument values as one deterministic (sorted) dict."""
        out: Dict[str, Any] = {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "total": h.total,
                    "mean": h.mean,
                    "percentiles": h.percentiles(),
                }
                for n, h in sorted(self._histograms.items())
            },
        }
        return out


#: A process-wide disabled registry for call sites that want to keep the
#: instrumentation unconditional without holding their own registry.
NULL_REGISTRY = MetricsRegistry(enabled=False)
