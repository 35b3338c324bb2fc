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
    _write_json_array(items, str(path))
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
