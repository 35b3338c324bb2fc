"""Round-trip tests: TraceLog -> trace events -> chrome trace file.

Satellite coverage for :mod:`repro.runtime.tracing` +
:mod:`repro.projections.export`: a hand-built trace log must survive the
export pipeline with event ordering and counter-track integrity intact.
"""

import json

import pytest

from repro.runtime.tracing import (
    IterationEvent,
    LBStepEvent,
    MigrationEvent,
    TaskEvent,
    TraceLog,
)
from repro.projections.export import (
    audit_counter_events,
    to_trace_events,
    write_chrome_trace,
)

_US = 1e6


def _trace():
    """Two cores, two iterations, one LB step with one migration."""
    log = TraceLog()
    spans = [
        (0, ("grid", 0), 0, 0.0, 0.4),
        (1, ("grid", 1), 0, 0.0, 0.2),
        (0, ("grid", 0), 1, 0.5, 0.9),
        (1, ("grid", 1), 1, 0.5, 0.7),
    ]
    for core, chare, it, start, end in spans:
        log.add_task(TaskEvent(core, chare, it, start, end, end - start))
    log.add_iteration(IterationEvent(0, 0.0, 0.4))
    log.add_iteration(IterationEvent(1, 0.5, 0.9))
    log.add_lb_step(LBStepEvent(0.45, 0, 1, 0.02, 0.3, 0.4))
    log.add_migration(MigrationEvent(0.45, ("grid", 0), 0, 1, 4096.0))
    return log


def _audit_records():
    """Committed audit records shaped like AuditTrail output."""
    return [
        {
            "time": 0.45, "num_migrations": 1,
            "cores": [
                {"core": 0, "load": 0.6, "bg_est": 0.2, "bg_true": 0.2},
                {"core": 1, "load": 0.2, "bg_est": 0.0, "bg_true": 0.0},
            ],
        },
        {
            "time": 0.95, "num_migrations": 0,
            "cores": [
                {"core": 0, "load": 0.4, "bg_est": 0.0, "bg_true": None},
                {"core": 1, "load": 0.4, "bg_est": 0.0, "bg_true": None},
            ],
        },
    ]


class TestToTraceEvents:
    def test_every_trace_record_round_trips_to_an_event(self):
        log = _trace()
        events = to_trace_events(log)
        tasks = [e for e in events if e.get("cat") == "task"]
        migrations = [e for e in events if e.get("cat") == "migration"]
        lb = [e for e in events if e.get("cat") == "lb"]
        assert len(tasks) == len(log.tasks)
        assert len(migrations) == len(log.migrations)
        assert len(lb) == len(log.lb_steps)
        # timestamps/durations are the source spans in microseconds
        for ev, t in zip(tasks, log.tasks):
            assert ev["ts"] == pytest.approx(t.start * _US)
            assert ev["dur"] == pytest.approx((t.end - t.start) * _US)
            assert ev["tid"] == t.core_id
            assert ev["args"]["iteration"] == t.iteration

    def test_event_ordering_is_preserved_per_core(self):
        events = to_trace_events(_trace())
        for cid in (0, 1):
            ts = [e["ts"] for e in events
                  if e.get("cat") == "task" and e["tid"] == cid]
            assert ts == sorted(ts)

    def test_metadata_names_process_and_every_core_thread(self):
        events = to_trace_events(_trace(), job_name="jacobi", pid=3)
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "jacobi"
        assert {e.get("tid") for e in meta[1:]} == {0, 1}
        assert all(e["pid"] == 3 for e in events)

    def test_empty_log_exports_just_process_metadata(self):
        (only,) = to_trace_events(TraceLog())
        assert only["ph"] == "M" and only["name"] == "process_name"


class TestAuditCounterEvents:
    def test_counter_tracks_cover_every_committed_record(self):
        events = audit_counter_events(_audit_records())
        by_name = {}
        for e in events:
            assert e["ph"] == "C" and e["cat"] == "lb-audit"
            by_name.setdefault(e["name"], []).append(e)
        # bg_true is None in the second record, so that series has one
        # sample; the others have one per record
        assert len(by_name["O_p true (s)"]) == 1
        assert len(by_name["per-core load (s)"]) == 2
        assert len(by_name["O_p estimated (s)"]) == 2
        assert len(by_name["migrations (cumulative)"]) == 2

    def test_migration_counter_is_cumulative_and_monotonic(self):
        counts = [
            e["args"]["count"]
            for e in audit_counter_events(_audit_records())
            if e["name"] == "migrations (cumulative)"
        ]
        assert counts == [1, 1]

    def test_uncommitted_records_are_skipped(self):
        records = _audit_records()
        records[0]["time"] = None
        events = audit_counter_events(records)
        assert {e["ts"] for e in events} == {0.95 * _US}


class TestWriteChromeTrace:
    def test_file_round_trip_preserves_all_lanes(self, tmp_path):
        path = tmp_path / "out.trace.json"
        n = write_chrome_trace(_trace(), str(path), audit=_audit_records())
        events = json.load(open(path))
        assert len(events) == n
        # every lane is simulated time, on the main job's pid
        assert {e["pid"] for e in events} == {1}
        cats = {e.get("cat") for e in events if "cat" in e}
        assert cats == {"task", "migration", "lb", "lb-audit"}

    def test_extra_traces_get_their_own_process_lanes(self, tmp_path):
        path = tmp_path / "multi.trace.json"
        write_chrome_trace(_trace(), str(path), extra=[_trace(), _trace()])
        events = json.load(open(path))
        assert {e["pid"] for e in events} == {1, 2, 3}

    def test_exported_json_is_loadable_and_ordered(self, tmp_path):
        """The viewer contract: valid JSON array, per-track monotonic ts."""
        path = tmp_path / "ordered.trace.json"
        write_chrome_trace(_trace(), str(path), audit=_audit_records())
        events = json.load(open(path))
        assert isinstance(events, list)
        per_track = {}
        for e in events:
            if "ts" in e:
                per_track.setdefault((e["pid"], e.get("tid"), e.get("cat")),
                                     []).append(e["ts"])
        for key, ts in per_track.items():
            assert ts == sorted(ts), key
