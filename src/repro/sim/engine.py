"""Deterministic discrete-event engine.

The engine owns simulated time. Components schedule callbacks at absolute
times or after delays and receive an :class:`EventHandle` they may cancel.
Events at equal times fire in scheduling order (a monotonically increasing
sequence number breaks ties), which makes every simulation bit-reproducible
across runs and platforms.

The engine is intentionally minimal — no processes, resources, or channels
here; those live in :mod:`repro.sim.cpu` and :mod:`repro.runtime`. Keeping
the core this small makes its invariants easy to state and property-test:

* time never decreases;
* a cancelled event never fires;
* events at the same timestamp fire in FIFO order.

Hot-path design notes
---------------------
The heap stores :class:`EventHandle` objects directly (ordered by
``(time, seq)`` via ``__lt__``) rather than ``(time, seq, handle)``
tuples — one allocation less per event and no tuple unpacking per pop.
Handles carry ``__slots__``; at millions of events the per-event dict of
a plain class dominates allocation cost. Cancelled events are removed
lazily on pop, but when they outnumber the live events the heap is
compacted in one O(n) pass, so pathological cancel-heavy workloads (every
scheduling change of a :class:`~repro.sim.cpu.SharedCore` cancels its
previous projections) cannot grow the heap without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.util import check_non_negative, get_logger

__all__ = ["EventHandle", "SimulationEngine"]

_log = get_logger(__name__)

#: Heaps smaller than this are never compacted — the O(n) rebuild would
#: cost more than the lazy pops it saves.
_COMPACT_MIN_HEAP = 64

_INF = float("inf")


class EventHandle:
    """Handle to a scheduled event; returned by ``schedule_*`` methods.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    seq:
        Tie-break sequence number (FIFO among equal times).
    cancelled:
        True once :meth:`SimulationEngine.cancel` was called; a cancelled
        event is skipped when popped (lazy deletion).
    fired:
        True once the callback ran.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        cancelled: bool = False,
        fired: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self.fired = fired

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event cancelled (idempotent; no effect if fired)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(time={self.time!r}, seq={self.seq}, {state})"


class SimulationEngine:
    """Time-ordered event loop.

    Examples
    --------
    >>> eng = SimulationEngine()
    >>> out = []
    >>> _ = eng.schedule_after(2.0, out.append, "b")
    >>> _ = eng.schedule_after(1.0, out.append, "a")
    >>> eng.run()
    >>> out
    ['a', 'b']
    >>> eng.now
    2.0
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[EventHandle] = []
        self._seq: int = 0
        self._events_fired: int = 0
        self._events_cancelled: int = 0
        #: cancelled handles still sitting in the heap (lazy deletion debt)
        self._stale: int = 0
        self._running: bool = False

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return len(self._heap) - self._stale

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far (excludes cancelled events)."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Total events cancelled so far."""
        return self._events_cancelled

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        Raises
        ------
        ValueError
            If ``time`` precedes the current simulated time.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event in the past: time={time} < now={self._now}"
            )
        handle = EventHandle(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, handle)
        return handle

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds (>= 0)."""
        # hot path (every projection reschedule): inline comparisons accept
        # the common case; the full checker handles everything else
        t = type(delay)
        if not ((t is float or t is int) and 0 <= delay < _INF):
            check_non_negative("delay", delay)
        return self.schedule_at(self._now + delay, callback, *args)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (lazy removal).

        When cancelled-but-unpopped events come to dominate the heap, it
        is compacted in one pass — lazy deletion stays O(log n) amortised
        without letting dead events accumulate unboundedly.
        """
        if not handle.fired and not handle.cancelled:
            handle.cancelled = True
            self._events_cancelled += 1
            self._stale += 1
            if (
                self._stale * 2 > len(self._heap)
                and len(self._heap) >= _COMPACT_MIN_HEAP
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and re-heapify (O(n)).

        In place — ``run`` holds a local alias to the heap list, so the
        list object must never be replaced.
        """
        self._heap[:] = [h for h in self._heap if not h.cancelled]
        heapq.heapify(self._heap)
        self._stale = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event. Return False if none remain."""
        heap = self._heap
        while heap:
            handle = heapq.heappop(heap)
            if handle.cancelled:
                self._stale -= 1
                continue
            self._now = handle.time
            handle.fired = True
            self._events_fired += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.

        When ``until`` is given, events strictly after it stay queued and
        simulated time advances exactly to ``until`` (so a subsequent
        ``run`` resumes cleanly).
        """
        if self._running:
            raise RuntimeError("SimulationEngine.run is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    return
                handle = heap[0]
                if handle.cancelled:
                    heappop(heap)
                    self._stale -= 1
                    continue
                if until is not None and handle.time > until:
                    break
                heappop(heap)
                self._now = handle.time
                handle.fired = True
                self._events_fired += 1
                handle.callback(*handle.args)
                fired += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            _log.debug(
                "run drained: now=%.9g fired=%d cancelled=%d pending=%d",
                self._now,
                self._events_fired,
                self._events_cancelled,
                len(self._heap),
            )
