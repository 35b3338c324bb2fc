"""Tests for the Chrome trace_event exporter."""

import json

import pytest

from repro.cluster import Cluster, NetworkModel
from repro.core import LBPolicy, RefineVMInterferenceLB
from repro.projections import to_trace_events, write_chrome_trace
from repro.runtime import Chare, ChareArray, Runtime
from repro.sim import SimulationEngine


class FixedChare(Chare):
    def __init__(self, index, cost=0.1):
        super().__init__(index, state_bytes=64.0)
        self.cost = cost

    def work(self, iteration):
        return self.cost


def traced_run(balanced=False):
    eng = SimulationEngine()
    cl = Cluster(eng, num_nodes=1, cores_per_node=2)
    rt = Runtime(
        eng,
        cl,
        [0, 1],
        net=NetworkModel.zero(),
        tracing=True,
        balancer=RefineVMInterferenceLB(0.05) if balanced else None,
        policy=LBPolicy(period_iterations=2, decision_overhead_s=0.0),
    )
    # imbalanced initial mapping so the balancer migrates
    arr = ChareArray("g", [FixedChare(i) for i in range(4)])
    mapping = {("g", i): 0 for i in range(4)} if balanced else None
    rt.register_array(arr, mapping=mapping)
    rt.start(iterations=4)
    eng.run()
    return rt


def test_events_have_required_fields():
    rt = traced_run()
    events = to_trace_events(rt.trace)
    task_events = [e for e in events if e.get("cat") == "task"]
    assert len(task_events) == 4 * 4  # 4 chares x 4 iterations
    for e in task_events:
        assert e["ph"] == "X"
        assert e["dur"] >= 0
        assert e["ts"] >= 0
        assert "iteration" in e["args"]


def test_metadata_names_cores_and_process():
    rt = traced_run()
    events = to_trace_events(rt.trace, job_name="myjob")
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert "myjob" in names
    assert "core 0" in names and "core 1" in names


def test_migration_and_lb_events_present():
    rt = traced_run(balanced=True)
    events = to_trace_events(rt.trace)
    assert any(e.get("cat") == "migration" for e in events)
    assert any(e.get("cat") == "lb" for e in events)


def test_timestamps_are_microseconds():
    rt = traced_run()
    events = to_trace_events(rt.trace)
    last_task = max(
        (e for e in events if e.get("cat") == "task"), key=lambda e: e["ts"]
    )
    # run lasts 4 x 0.2 s; in us that's 800000-ish, not 0.8
    assert last_task["ts"] > 1000


def test_write_chrome_trace_roundtrip(tmp_path):
    rt = traced_run(balanced=True)
    path = tmp_path / "trace.json"
    n = write_chrome_trace(rt.trace, str(path), job_name="app")
    data = json.loads(path.read_text())
    assert len(data) == n
    assert all("ph" in e for e in data)


def test_multiple_jobs_get_distinct_pids(tmp_path):
    rt1 = traced_run()
    rt2 = traced_run()
    path = tmp_path / "both.json"
    write_chrome_trace(rt1.trace, str(path), extra=[rt2.trace])
    data = json.loads(path.read_text())
    assert {e["pid"] for e in data} == {1, 2}


# ---------------------------------------------------------------------------
# batched encoding + atomic write
# ---------------------------------------------------------------------------


def _ledger_rows(n):
    """A ledger summary with ``n`` per-iteration rows (one event each)."""
    return {
        "per_iteration": [
            {"start_s": i * 0.1, "compute": 0.25 * i, "stolen": 1 / 3,
             "overhead": 0.0, "idle": 1e-9 * i}
            for i in range(n)
        ]
    }


@pytest.mark.parametrize("n", [0, 1, 256, 257, 513])
def test_json_array_writer_matches_json_dumps(tmp_path, n):
    from repro.projections.export import _write_json_array

    items = [{"i": i, "x": i / 7, "s": f"e{i}", "l": [i, None]} for i in range(n)]
    path = tmp_path / "items.json"
    # the writer takes encoded items, lazily, and counts them
    assert _write_json_array(map(json.dumps, items), str(path)) == n
    assert path.read_text() == json.dumps(items)
    assert [p.name for p in tmp_path.iterdir()] == ["items.json"]


@pytest.mark.parametrize("n", [1, 256, 257])
def test_chrome_trace_is_byte_identical_to_json_dumps(tmp_path, n):
    from repro.projections.export import ledger_counter_events
    from repro.runtime.tracing import TraceLog

    # an empty trace exports one process_name event; each ledger row one
    # counter event
    trace = TraceLog()
    ledger = _ledger_rows(n - 1)
    path = tmp_path / "t.trace.json"
    assert write_chrome_trace(trace, str(path), ledger=ledger) == n
    expected = to_trace_events(trace) + ledger_counter_events(ledger)
    assert path.read_text() == json.dumps(expected)


def test_audited_trace_is_byte_identical(tmp_path):
    from repro.experiments.sweep import run_point_audited
    from repro.projections.export import audit_counter_events

    _, records, trace = run_point_audited(
        {"app": "jacobi2d", "scale": 0.05, "iterations": 10, "cores": 4,
         "bg": True, "balancer": "refine-vm"}
    )
    path = tmp_path / "p.trace.json"
    n = write_chrome_trace(trace, str(path), job_name="p", audit=records)
    expected = to_trace_events(trace, job_name="p") + audit_counter_events(records)
    assert n == len(expected) > 256
    assert any(e.get("cat") == "lb-audit" for e in expected)
    assert path.read_text() == json.dumps(expected)


def test_failed_export_keeps_the_previous_trace(tmp_path):
    from repro.runtime.tracing import TraceLog

    path = tmp_path / "t.trace.json"
    path.write_text("[]")
    ledger = _ledger_rows(300)
    # the bad row sits in the second batch: the first is already written
    ledger["per_iteration"][290]["idle"] = object()
    with pytest.raises(TypeError):
        write_chrome_trace(TraceLog(), str(path), ledger=ledger)
    assert path.read_text() == "[]"
    assert [p.name for p in tmp_path.iterdir()] == ["t.trace.json"]


# ---------------------------------------------------------------------------
# the streaming encoder against the reference encoding
# ---------------------------------------------------------------------------


def _log(tasks, migrations=(), lb_steps=()):
    from repro.runtime.tracing import TraceLog

    log = TraceLog()
    for t in tasks:
        log.add_task(t)
    for m in migrations:
        log.add_migration(m)
    for s in lb_steps:
        log.add_lb_step(s)
    return log


def _non_finite_case():
    from repro.runtime.tracing import TaskEvent as T

    nan, inf = float("nan"), float("inf")
    return _log([
        T(0, ("g", 0), 0, 0.0, 0.5, 0.5),
        T(0, ("g", 0), 0, nan, 1.0, 0.5),
        T(0, ("g", 0), 0, 0.5, nan, 0.5),
        T(1, ("g", 1), 0, 0.0, inf, 0.25),
        T(1, ("g", 1), 1, -inf, 0.0, 0.25),
        T(1, ("g", 1), 1, 0.5, -inf, 0.25),
        T(0, ("g", 0), 1, 0.5, 1.0, nan),
        T(0, ("g", 0), 1, 0.5, 1.0, inf),
        T(0, ("g", 0), 2, 0.5, 1.0, -inf),
        # finite inputs whose microseconds or wall time overflow
        T(0, ("g", 0), 2, 1e303, 1e303, 0.0),
        T(0, ("g", 0), 2, -1e308, 1e308, 1.0),
        T(1, ("g", 1), 2, 1.0, 1.5, 0.5),
    ])


def _int_times_case():
    # TaskEvent does not coerce its fields: int times must encode as
    # json.dumps encodes them
    from repro.runtime.tracing import TaskEvent as T

    return _log([
        T(0, ("shard", 0), 0, 0, 2, 2),
        T(0, ("shard", 0), 1, 2, 3.5, 1),
        T(1, ("shard", 1), 0, 0.0, 1.0, 1),  # int cpu equal to a float wall
        T(1, ("shard", 1), 1, 1.0, 3, 2.0),
        T(1, ("shard", 1), 2, 3.0, 4.0, 1.0),
    ])


def _bool_ids_numpy_floats_case():
    import numpy as np

    from repro.runtime.tracing import TaskEvent as T

    return _log([
        # equal, hash-equal ids of other types must not share a cached text
        T(1, ("g", 1), 0, 0.0, 0.5, 0.5),
        T(True, ("g", 1), 0, 0.0, 0.5, 0.5),
        T(1, ("g", True), 0, 0.0, 0.5, 0.5),
        T(1, ("g", 1), True, 0.5, 1.0, 0.5),
        T(0, ("g", 0), 0, np.float64(0.1), np.float64(0.3), np.float64(0.2)),
        T(0, ("g", 0), 1, 0.3, np.float64(0.7), 0.4),
        T(0, ("g", 0), 2, 0.7, 0.9, np.float64(0.2)),
    ])


def _signed_zero_case():
    from repro.runtime.tracing import TaskEvent as T

    return _log([
        T(0, ("g", 0), 0, 0.0, 0.0, -0.0),  # wall 0.0, cpu -0.0
        T(0, ("g", 0), 1, 0.0, -0.0, 0.0),  # wall -0.0, cpu 0.0
        T(0, ("g", 0), 2, -0.0, -0.0, 0.0),
        T(1, ("g", 1), 0, 0.25, 0.25, 0.0),
        T(1, ("g", 1), 1, 0.25, 0.75, 0.5),  # equal and nonzero
        T(1, ("g", 1), 2, 0.75, 1.25, 0.25),
    ])


def _awkward_names_case():
    from repro.runtime.tracing import TaskEvent as T

    names = ['say "hi"', "back\\slash", "bell\x07\ttab\n", "ünïcødé ✓",
             "line\u2028sep", "smile \U0001F600", ""]
    return _log([
        T(i % 2, (name, i), 0, 0.1 * i, 0.1 * i + 0.05, 0.05)
        for i, name in enumerate(names)
    ])


def _many_tasks_case(n=3 * 256 + 5):
    from repro.runtime.tracing import LBStepEvent, MigrationEvent
    from repro.runtime.tracing import TaskEvent as T

    tasks = []
    for i in range(n):
        start = (i // 4) * 0.0123456789
        tasks.append(T(i % 4, ("stencil", i % 12), i // 12, start,
                       start + 0.01 / (1 + i % 7), 0.01 / (1 + i % 5)))
    return _log(
        tasks,
        migrations=[MigrationEvent(0.5, ("stencil", 3), 3, 0, 512.0)],
        lb_steps=[LBStepEvent(0.5, 10, 1, 1e-4, 0.02, 0.03)],
    )


def _counters():
    """Audit, ledger and lineage counter inputs with a few rows each."""
    audit = [
        {"time": 0.5, "num_migrations": 1,
         "cores": [{"core": 0, "load": 0.25, "bg_est": 0.1, "bg_true": 0.125},
                   {"core": 1, "load": 1 / 3, "bg_est": 0.0, "bg_true": None}]},
        {"time": None, "num_migrations": 2, "cores": []},
    ]
    ledger = _ledger_rows(3)
    lineage = {"per_iteration": [
        {"start_s": 0.1 * i, "lambda": 1 + i / 9, "cov": i / 7, "gini": 0.0,
         "loads": {"0": 0.2 * i, "1": 1 / 3}}
        for i in range(3)
    ]}
    return {"audit": audit, "ledger": ledger, "lineage": lineage}


_ENCODER_CASES = {
    "non-finite": lambda: (_non_finite_case(), {}),
    "int-times": lambda: (_int_times_case(), {}),
    "bool-ids-numpy-floats": lambda: (_bool_ids_numpy_floats_case(), {}),
    "signed-zero": lambda: (_signed_zero_case(), {}),
    "awkward-names": lambda: (_awkward_names_case(), {"job_name": 'job "\\ ✓'}),
    "extra-lanes": lambda: (
        _many_tasks_case(40),
        {
            "extra": [_awkward_names_case(), _signed_zero_case()],
            **_counters(),
        },
    ),
    "more-than-one-batch": lambda: (_many_tasks_case(), _counters()),
}


@pytest.mark.parametrize("case", list(_ENCODER_CASES))
def test_streamed_trace_equals_json_dumps_of_the_events(tmp_path, case):
    """Whatever the input, the file is the stdlib encoding of
    ``to_trace_events`` per lane followed by the counter events."""
    from repro.projections.export import (
        audit_counter_events,
        ledger_counter_events,
        lineage_counter_events,
    )

    trace, kwargs = _ENCODER_CASES[case]()
    expected = to_trace_events(trace, job_name=kwargs.get("job_name", "app"))
    for i, other in enumerate(kwargs.get("extra", ()), start=2):
        expected += to_trace_events(other, job_name=f"job-{i}", pid=i)
    if kwargs.get("audit"):
        expected += audit_counter_events(kwargs["audit"])
    if kwargs.get("ledger") is not None:
        expected += ledger_counter_events(kwargs["ledger"])
    if kwargs.get("lineage") is not None:
        expected += lineage_counter_events(kwargs["lineage"])
    path = tmp_path / "t.trace.json"
    assert write_chrome_trace(trace, str(path), **kwargs) == len(expected)
    assert path.read_text() == json.dumps(expected)
    if case == "extra-lanes":
        assert {e["pid"] for e in expected} == {1, 2, 3}
    if case == "more-than-one-batch":
        from repro.projections.export import _BATCH

        assert len(trace.tasks) > 3 * _BATCH


def test_export_memory_stays_far_below_the_file_size(tmp_path):
    """Streaming holds one batch of text, not every event dict: the
    traced peak stays under a quarter of the written file."""
    import tracemalloc

    from repro.runtime.tracing import TaskEvent

    # 16 cores x 8 chares each x 400 iterations = 51,200 tasks
    trace = _log([])
    for it in range(400):
        for k in range(128):
            start = it * 0.0123456789 + (k // 16) * 1.01e-4
            wall = 1e-4 * (1 + (k + it) % 3) / 3
            cpu = wall if k % 5 else wall / 2
            trace.add_task(TaskEvent(k % 16, ("jacobi2d", k), it, start, start + wall, cpu))
    path = tmp_path / "big.trace.json"
    tracemalloc.start()
    try:
        n = write_chrome_trace(trace, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 51_200 + 17
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)
