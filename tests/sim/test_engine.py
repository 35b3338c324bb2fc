"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationEngine


def test_initial_state():
    eng = SimulationEngine()
    assert eng.now == 0.0
    assert eng.pending == 0
    assert eng.events_fired == 0


def test_events_fire_in_time_order():
    eng = SimulationEngine()
    out = []
    eng.schedule_after(3.0, out.append, "c")
    eng.schedule_after(1.0, out.append, "a")
    eng.schedule_after(2.0, out.append, "b")
    eng.run()
    assert out == ["a", "b", "c"]
    assert eng.now == 3.0


def test_equal_time_events_fifo():
    eng = SimulationEngine()
    out = []
    for label in "abcde":
        eng.schedule_at(5.0, out.append, label)
    eng.run()
    assert out == list("abcde")


def test_schedule_in_past_raises():
    eng = SimulationEngine()
    eng.schedule_after(1.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    eng = SimulationEngine()
    with pytest.raises(ValueError):
        eng.schedule_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    eng = SimulationEngine()
    out = []
    h = eng.schedule_after(1.0, out.append, "x")
    eng.schedule_after(2.0, out.append, "y")
    eng.cancel(h)
    eng.run()
    assert out == ["y"]
    assert eng.events_cancelled == 1


def test_cancel_is_idempotent():
    eng = SimulationEngine()
    h = eng.schedule_after(1.0, lambda: None)
    eng.cancel(h)
    eng.cancel(h)
    assert eng.events_cancelled == 1


def test_cancel_goes_through_the_engine_only():
    # a handle that cancelled itself skipped the engine's accounting:
    # ``pending`` kept counting the dead event, popping it drove the stale
    # count negative (``pending`` over-counted from then on), and a fired
    # handle could read cancelled
    eng = SimulationEngine()
    out = []
    h = eng.schedule_after(1.0, out.append, "x")
    eng.schedule_after(2.0, out.append, "y")
    assert not hasattr(h, "cancel")
    eng.cancel(h)
    assert (eng.pending, eng.events_cancelled) == (1, 1)
    assert eng.step() is True
    assert out == ["y"] and eng.pending == 0
    fired = eng.schedule_after(1.0, out.append, "z")
    assert eng.pending == 1
    eng.run()
    eng.cancel(fired)
    assert fired.fired and not fired.cancelled
    assert (eng.pending, eng.events_cancelled) == (0, 1)


def test_run_until_stops_and_resumes():
    eng = SimulationEngine()
    out = []
    eng.schedule_after(1.0, out.append, 1)
    eng.schedule_after(5.0, out.append, 5)
    eng.run(until=3.0)
    assert out == [1]
    assert eng.now == 3.0
    eng.run()
    assert out == [1, 5]
    assert eng.now == 5.0


def test_run_until_advances_time_even_without_events():
    eng = SimulationEngine()
    eng.run(until=10.0)
    assert eng.now == 10.0


def test_events_scheduled_during_run_are_honored():
    eng = SimulationEngine()
    out = []

    def chain(n):
        out.append(n)
        if n < 5:
            eng.schedule_after(1.0, chain, n + 1)

    eng.schedule_after(0.0, chain, 1)
    eng.run()
    assert out == [1, 2, 3, 4, 5]
    assert eng.now == 4.0


def test_max_events_limit():
    eng = SimulationEngine()
    out = []
    for i in range(10):
        eng.schedule_after(float(i), out.append, i)
    eng.run(max_events=3)
    assert out == [0, 1, 2]


def test_step_returns_false_when_drained():
    eng = SimulationEngine()
    assert eng.step() is False
    eng.schedule_after(1.0, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_run_is_not_reentrant():
    eng = SimulationEngine()

    def nested():
        with pytest.raises(RuntimeError):
            eng.run()

    eng.schedule_after(1.0, nested)
    eng.run()


# ----------------------------------------------------------------------
# hot-path mechanics: __slots__ handles, lazy deletion, heap compaction
# ----------------------------------------------------------------------
def test_event_handle_has_slots():
    eng = SimulationEngine()
    h = eng.schedule_after(1.0, lambda: None)
    assert not hasattr(h, "__dict__")
    with pytest.raises(AttributeError):
        h.arbitrary_attribute = 1


def test_heap_compaction_drops_cancelled_events():
    eng = SimulationEngine()
    out = []
    handles = [eng.schedule_after(float(i + 1), out.append, i) for i in range(200)]
    for h in handles[:150]:  # cancelled majority triggers compaction
        eng.cancel(h)
    assert eng.pending == 50
    assert len(eng._heap) < 200  # dead events physically removed
    eng.run()
    assert out == list(range(150, 200))
    assert eng.events_cancelled == 150


def test_compaction_below_min_heap_is_lazy():
    eng = SimulationEngine()
    handles = [eng.schedule_after(float(i + 1), lambda: None) for i in range(10)]
    for h in handles:
        eng.cancel(h)
    # too small to compact: lazy deletion keeps them until popped
    assert len(eng._heap) == 10
    assert eng.pending == 0
    eng.run()
    assert len(eng._heap) == 0


def test_compaction_mid_run_keeps_draining():
    # regression: compaction must edit the heap list in place, because
    # run() iterates a local alias to it
    eng = SimulationEngine()
    out = []

    def burst():
        handles = [
            eng.schedule_after(float(i + 100), out.append, -1) for i in range(200)
        ]
        for h in handles:
            eng.cancel(h)
        eng.schedule_after(1.0, out.append, "after")

    eng.schedule_after(1.0, burst)
    eng.run()
    assert out == ["after"]


def test_compaction_preserves_fifo_order():
    eng = SimulationEngine()
    out = []
    keep = []
    cancel = []
    for i in range(100):
        keep.append(eng.schedule_at(5.0, out.append, i))
        cancel.append(eng.schedule_at(5.0, out.append, -1))
    for h in cancel:
        eng.cancel(h)
    eng.run()
    assert out == list(range(100))


# ----------------------------------------------------------------------
# property: random interleavings of schedule_at, schedule_after and cancel
# ----------------------------------------------------------------------
#: delays on a binary grid, so times add exactly and often tie
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_OPS = st.one_of(
    st.tuples(st.just("at"), _DELAYS),
    st.tuples(st.just("after"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
    st.just(("burst",)),
)
#: scheduling ops beyond this many are skipped (callbacks schedule more)
_MAX_SCHEDULED = 60
#: a burst schedules this many events and cancels all but every 8th: with
#: at most _MAX_SCHEDULED + 16 other live events, the dead ones then
#: outnumber the live ones, so the heap must compact
_BURST = 128
_MAX_BURSTS = 2


class _CountingEngine(SimulationEngine):
    def __init__(self):
        super().__init__()
        self.compactions = 0

    def _compact(self):
        self.compactions += 1
        super()._compact()


class _Model:
    """Drives an engine through ops and checks it against a plain model:
    the set of live events, each keyed by its ``(time, seq)``."""

    def __init__(self, eng, callback_ops):
        self.eng = eng
        self.callback_ops = callback_ops
        self.handles = []
        self.keys = []
        self.live = {}
        self.fired = []
        self.cancelled = set()
        self.scheduled = 0
        self.bursts = 0

    def _schedule(self, kind, delay, ops):
        eng = self.eng
        i = len(self.handles)
        time = eng.now + delay
        if kind == "at":
            h = eng.schedule_at(time, self._fire, i, ops)
        else:
            h = eng.schedule_after(delay, self._fire, i, ops)
        assert (h.time, h.seq) == (time, i)
        self.handles.append(h)
        self.keys.append((time, i))
        self.live[i] = (time, i)

    def _cancel(self, i):
        self.eng.cancel(self.handles[i])
        if i in self.live:
            del self.live[i]
            self.cancelled.add(i)

    def apply(self, op):
        kind = op[0]
        if kind in ("at", "after"):
            if self.scheduled < _MAX_SCHEDULED:
                ops = (
                    self.callback_ops[self.scheduled]
                    if self.scheduled < len(self.callback_ops)
                    else []
                )
                self.scheduled += 1
                self._schedule(kind, op[1], ops)
        elif kind == "cancel":
            if self.handles:
                self._cancel(op[1] % len(self.handles))
        elif self.bursts < _MAX_BURSTS:
            self.bursts += 1
            before = self.eng.compactions
            first = len(self.handles)
            for j in range(_BURST):
                self._schedule("after", 0.5 * (j % 4), [])
            for j in range(_BURST):
                if j % 8:
                    self._cancel(first + j)
            assert self.eng.compactions > before
        assert self.eng.pending == len(self.live)

    def _fire(self, i, ops):
        eng = self.eng
        # exactly the live events fire, each the least (time, seq) left
        assert i in self.live
        assert self.keys[i] == min(self.live.values())
        del self.live[i]
        assert eng.now == self.keys[i][0]
        assert eng.pending == len(self.live)
        self.fired.append(i)
        for op in ops:
            self.apply(op)


@given(
    ops=st.lists(_OPS, min_size=1, max_size=20),
    callback_ops=st.lists(st.lists(_OPS, max_size=3), max_size=_MAX_SCHEDULED),
    drive=st.sampled_from(["run", "until", "step"]),
    untils=st.lists(st.sampled_from([0.0, 0.5, 1.25, 2.0, 3.5, 6.0]), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_live_events_fire_in_time_seq_order_and_pending_is_exact(
    ops, callback_ops, drive, untils
):
    eng = _CountingEngine()
    model = _Model(eng, callback_ops)
    for op in ops:
        model.apply(op)
    if drive == "until":
        for until in sorted(untils):
            eng.run(until=until)
            assert eng.now == until
            assert all(time > until for time, _ in model.live.values())
            assert eng.pending == len(model.live)
        eng.run()
    elif drive == "step":
        steps = 0
        while eng.step():
            steps += 1
            assert eng.pending == len(model.live)
        assert steps == len(model.fired)
    else:
        eng.run()
    assert model.live == {}
    assert eng.pending == 0
    fired_keys = [model.keys[i] for i in model.fired]
    assert fired_keys == sorted(fired_keys)
    assert set(model.fired) == set(range(len(model.handles))) - model.cancelled
    assert eng.events_fired == len(model.fired)
    assert eng.events_cancelled == len(model.cancelled)
    if model.bursts:
        assert eng.compactions > 0
