"""Deterministic discrete-event engine.

The engine owns simulated time. Components schedule callbacks at absolute
times or after delays and receive an :class:`EventHandle` they may pass
to :meth:`SimulationEngine.cancel`.
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
The heap holds ``(time, seq, handle)`` tuples, ordered by the tuple
comparison in C; ``seq`` is unique, so no two entries ever compare their
handles. Storing the handles themselves, ordered by a Python ``__lt__``,
saves one tuple per event but pays one Python call per heap comparison:
1.36 million calls (about 5.6 per event) in one pass of the benchmark's
``events`` workload, which cost more than the tuples. Handles carry
``__slots__``; at millions of events the per-event dict of a plain class
dominates allocation cost. :attr:`SimulationEngine.now` is a plain
attribute, since every accrual, dispatch and projection reads it.
Cancelled events are removed lazily on pop, but when they outnumber the
live events the heap is compacted in one O(n) pass, so pathological
cancel-heavy workloads (every scheduling change of a
:class:`~repro.sim.cpu.SharedCore` cancels its previous projections)
cannot grow the heap without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

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
        True once :meth:`SimulationEngine.cancel` was called before the
        event fired; a cancelled event is skipped when popped (lazy
        deletion). The engine's ``cancel`` is the only way to cancel, so
        that ``pending`` and ``events_cancelled`` stay exact.
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

    Attributes
    ----------
    now:
        Current simulated time (seconds). Read it; only the engine
        advances it.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: ``(time, seq, handle)`` entries, a binary heap
        self._heap: List[Tuple[float, int, EventHandle]] = []
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
        if time < self.now:
            raise ValueError(
                f"cannot schedule event in the past: time={time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        heappush(self._heap, (time, seq, handle))
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
        # now + a non-negative delay is never before now: no past check
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        heappush(self._heap, (time, seq, handle))
        return handle

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
        self._heap[:] = [e for e in self._heap if not e[2].cancelled]
        heapify(self._heap)
        self._stale = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event. Return False if none remain."""
        heap = self._heap
        while heap:
            time, _seq, handle = heappop(heap)
            if handle.cancelled:
                self._stale -= 1
                continue
            self.now = time
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
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    return
                time, _seq, handle = heap[0]
                if handle.cancelled:
                    heappop(heap)
                    self._stale -= 1
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self.now = time
                handle.fired = True
                self._events_fired += 1
                handle.callback(*handle.args)
                fired += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            _log.debug(
                "run drained: now=%.9g fired=%d cancelled=%d pending=%d",
                self.now,
                self._events_fired,
                self._events_cancelled,
                len(self._heap),
            )
