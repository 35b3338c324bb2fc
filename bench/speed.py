"""Host-speed normalisation for the benchmark's timings.

The hosts this benchmark runs on share their CPUs: the same pure-Python
loop can take 1.8x longer for tens of seconds at a time, longer than a
whole run. No statistic over one run removes that, so timed work is
scaled by how fast the host was *while it ran*.

A fixed kernel (a small heap-driven event loop, pure Python like the
simulator) is timed before a sweep, at its start, at every point start
and after it. Each stretch of work between two kernel samples is scaled
by ``KERNEL_REF_S / mean(kernel time at its two ends)``, giving
*reference seconds*: the time the work would take on a host where the
kernel takes exactly ``KERNEL_REF_S``. The kernel is part of the
benchmark, so it is identical on both sides of any comparison.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from typing import Any, Dict, List, Optional, Tuple

#: the kernel's time on the reference host; defines the reference second
KERNEL_REF_S = 1e-3

KERNEL_STEPS = 1500


class _Particle:
    __slots__ = ("t", "rate")

    def __init__(self, t: float, rate: float) -> None:
        self.t = t
        self.rate = rate

    def advance(self, dt: float) -> float:
        self.t += self.rate * dt
        return self.t


def kernel(steps: int = KERNEL_STEPS) -> float:
    """Fixed work: pop the earliest of 32 clocks, advance it, push it back."""
    objs = [_Particle(float(i), 1.0 + i * 1e-3) for i in range(32)]
    heap = [(p.t, i) for i, p in enumerate(objs)]
    heapq.heapify(heap)
    acc: Dict[int, float] = {}
    for j in range(steps):
        t, i = heapq.heappop(heap)
        heapq.heappush(heap, (objs[i].advance(math.sin(t) * 0.5 + 1.0), i))
        acc[j & 255] = acc.get(j & 255, 0.0) + t
    return sum(acc.values())


def time_kernel() -> float:
    """Seconds the kernel takes now. The collector is paused, so the time
    does not depend on how many objects the benchmarked program holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Kernel samples around and inside one sweep.

    Call :meth:`sample` before and after the sweep and pass
    :meth:`on_event` as the sweep log's ``on_event`` callback; it samples
    at ``sweep_start`` and at every ``point_start``.
    """

    def __init__(self) -> None:
        # (end of the previous stretch, kernel seconds, start of the next, point label)
        self.samples: List[Tuple[float, float, float, Optional[str]]] = []

    def sample(self, label: Optional[str] = None) -> None:
        t0 = time.perf_counter()
        k = time_kernel()
        self.samples.append((t0, k, time.perf_counter(), label))

    def on_event(self, event: Dict[str, Any]) -> None:
        if event["event"] in ("sweep_start", "point_start"):
            self.sample(event.get("label"))

    def stretches(self):
        """``(raw seconds, scale, label of the point that started it)`` per stretch."""
        for (_, k0, start, label), (end, k1, _, _) in zip(self.samples, self.samples[1:]):
            yield end - start, KERNEL_REF_S / ((k0 + k1) / 2), label

    def inner_kernel_s(self) -> float:
        """Kernel time spent inside the sweep (all but the outer samples)."""
        return sum(k for _, k, _, _ in self.samples[1:-1])

    def raw_s(self) -> float:
        return sum(raw for raw, _, _ in self.stretches())

    def reference_s(self) -> float:
        return sum(raw * scale for raw, scale, _ in self.stretches())

    def scales(self) -> Dict[str, float]:
        """Scale of the stretch each point ran in, by point label."""
        return {label: scale for _, scale, label in self.stretches() if label is not None}
