"""Unit tests for the LB decision audit trail and its summaries."""

import json

import pytest

from repro.telemetry.audit import (
    ACCEPTED,
    AUDIT_SCHEMA,
    REASON_ACCEPTED,
    REASON_RECEIVER_WOULD_EXCEED,
    REJECTED,
    AuditTrail,
    audit_summary,
    read_audit_jsonl,
    write_audit_jsonl,
)


class _FakeTask:
    def __init__(self, chare, cpu_time, state_bytes=1000.0):
        self.chare = chare
        self.cpu_time = cpu_time
        self.state_bytes = state_bytes


class _FakeCore:
    def __init__(self, core_id, tasks, bg_load):
        self.core_id = core_id
        self.tasks = tasks
        self.task_time = sum(t.cpu_time for t in tasks)
        self.bg_load = bg_load


class _FakeView:
    def __init__(self, cores, window=1.0):
        self.cores = cores
        self.window = window


class _FakeMigration:
    def __init__(self, chare, src, dst):
        self.chare = chare
        self.src = src
        self.dst = dst


def _view():
    return _FakeView(
        [
            _FakeCore(0, [_FakeTask(("app", 0), 0.4), _FakeTask(("app", 1), 0.2)], 0.5),
            _FakeCore(1, [_FakeTask(("app", 2), 0.1)], 0.0),
        ]
    )


def _open_step(trail):
    return trail.on_step(
        strategy="refine-vm-interference",
        view=_view(),
        migrations=[_FakeMigration(("app", 0), 0, 1)],
        candidates=[
            {
                "chare": ["app", 0], "src": 0, "dst": 1, "cpu_time": 0.4,
                "outcome": ACCEPTED, "reason": REASON_ACCEPTED,
            }
        ],
        t_avg=0.6,
        epsilon_s=0.03,
    )


class TestAuditTrail:
    def test_on_step_captures_view_and_decision(self):
        trail = AuditTrail()
        record = _open_step(trail)
        assert len(trail) == 1
        assert record["schema"] == AUDIT_SCHEMA
        assert record["step"] == 0
        assert record["t_avg"] == 0.6
        assert record["epsilon_s"] == 0.03
        assert [c["core"] for c in record["cores"]] == [0, 1]
        assert record["cores"][0]["bg_est"] == 0.5
        assert record["cores"][0]["load"] == pytest.approx(1.1)
        assert record["num_migrations"] == 1
        assert record["bytes_moved"] == 1000.0
        assert record["migrations"][0]["chare"] == ["app", 0]
        assert record["migrations"][0]["cpu_time"] == 0.4
        # runtime fields stay null until commit
        assert record["time"] is None
        assert record["cores"][0]["bg_true"] is None

    def test_commit_step_fills_runtime_context(self):
        trail = AuditTrail()
        _open_step(trail)
        record = trail.commit_step(
            time=2.5,
            iteration=5,
            bg_cpu={0: 0.48, 1: 0.0},
            migration_cost_s=0.01,
            decision_overhead_s=0.002,
        )
        assert record["time"] == 2.5
        assert record["iteration"] == 5
        assert record["cores"][0]["bg_true"] == 0.48
        assert record["overhead_s"] == pytest.approx(0.012)

    def test_bg_true_is_the_snapshot_delta_since_launch_or_last_commit(self):
        trail = AuditTrail()
        trail.mark_launch({0: 1.0, 1: 2.0})
        _open_step(trail)
        first = trail.commit_step(
            time=1.0, iteration=2, bg_cpu={0: 1.5, 1: 2.0},
            migration_cost_s=0.0, decision_overhead_s=0.0,
        )
        assert [c["bg_true"] for c in first["cores"]] == [0.5, 0.0]
        _open_step(trail)
        second = trail.commit_step(
            time=2.0, iteration=4, bg_cpu={0: 1.75, 1: 3.0},
            migration_cost_s=0.0, decision_overhead_s=0.0,
        )
        assert [c["bg_true"] for c in second["cores"]] == [0.25, 1.0]

    def test_commit_without_step_raises(self):
        with pytest.raises(RuntimeError, match="without a pending"):
            AuditTrail().commit_step(
                time=0.0, iteration=0, bg_cpu={},
                migration_cost_s=0.0, decision_overhead_s=0.0,
            )


class TestJsonlIO:
    def test_round_trip_is_exact(self, tmp_path):
        trail = AuditTrail()
        _open_step(trail)
        trail.commit_step(
            time=1.0, iteration=2, bg_cpu={0: 0.5, 1: 0.0},
            migration_cost_s=0.01, decision_overhead_s=0.0,
        )
        path = tmp_path / "audit.jsonl"
        assert write_audit_jsonl(trail.records, path) == 1
        loaded = read_audit_jsonl(path)
        assert loaded == json.loads(json.dumps(trail.records))

    def test_write_is_byte_deterministic(self, tmp_path):
        trail = AuditTrail()
        _open_step(trail)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_audit_jsonl(trail.records, a)
        write_audit_jsonl(json.loads(json.dumps(trail.records)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_read_rejects_bad_json_mid_file_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{broken\n{"ok": 1}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:1"):
            read_audit_jsonl(path)

    def test_read_rejects_non_object_records_mid_file(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text('[1, 2]\n{"ok": 1}\n')
        with pytest.raises(ValueError, match="not an object"):
            read_audit_jsonl(path)

    def test_read_skips_malformed_trailing_line_with_warning(self, tmp_path, caplog):
        """A truncated final line (killed writer) must not lose the trail."""
        path = tmp_path / "trunc.jsonl"
        path.write_text('{"ok": 1}\n{"step": 2, "mig')
        with caplog.at_level("WARNING", logger="repro.telemetry.audit"):
            loaded = read_audit_jsonl(path)
        assert loaded == [{"ok": 1}]
        assert any("trailing line" in r.message for r in caplog.records)

    def test_read_skips_non_object_trailing_record(self, tmp_path, caplog):
        path = tmp_path / "list.jsonl"
        path.write_text('{"ok": 1}\n[1, 2]\n')
        with caplog.at_level("WARNING", logger="repro.telemetry.audit"):
            loaded = read_audit_jsonl(path)
        assert loaded == [{"ok": 1}]
        assert any("non-object trailing" in r.message for r in caplog.records)

    def test_all_malformed_file_still_raises(self, tmp_path):
        """Trailing-line tolerance needs surviving records — a file that
        is nothing but garbage is not a truncated trail."""
        path = tmp_path / "garbage.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ValueError, match=r"garbage\.jsonl:1"):
            read_audit_jsonl(path)
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_audit_jsonl(path)

    def test_write_is_atomic_on_failure(self, tmp_path):
        """An exploding record iterator must not leave a partial file."""
        path = tmp_path / "atomic.jsonl"
        path.write_text('{"previous": true}\n')

        def exploding():
            yield {"ok": 1}
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError, match="killed mid-write"):
            write_audit_jsonl(exploding(), path)
        # the prior contents survive and no temp file is left behind
        assert path.read_text() == '{"previous": true}\n'
        assert list(tmp_path.glob("*.tmp")) == []


class TestAuditSummary:
    def test_empty_summary(self):
        s = audit_summary([])
        assert s["lb_steps"] == 0
        assert s["migrations"] == 0
        assert s["reasons"] == {}
        assert s["estimation_error"]["mean_abs"] == 0.0

    def test_counts_reasons_and_estimation_error(self):
        trail = AuditTrail()
        _open_step(trail)
        trail.commit_step(
            time=1.0, iteration=2, bg_cpu={0: 0.4, 1: 0.1},
            migration_cost_s=0.01, decision_overhead_s=0.002,
        )
        record = _open_step(trail)
        record["candidates"].append(
            {
                "chare": ["app", 1], "src": 0, "dst": None, "cpu_time": 0.2,
                "outcome": REJECTED, "reason": REASON_RECEIVER_WOULD_EXCEED,
            }
        )
        s = audit_summary(trail.records)
        assert s["lb_steps"] == 2
        assert s["migrations"] == 2
        assert s["overhead_s"] == pytest.approx(0.012)  # only committed step
        assert s["reasons"] == {
            f"{ACCEPTED}:{REASON_ACCEPTED}": 2,
            f"{REJECTED}:{REASON_RECEIVER_WOULD_EXCEED}": 1,
        }
        est = s["estimation_error"]
        # core 0: est 0.5 vs true 0.4 -> +0.1; core 1: 0.0 vs 0.1 -> -0.1
        assert est["per_core"]["0"]["mean_err"] == pytest.approx(0.1)
        assert est["per_core"]["1"]["mean_err"] == pytest.approx(-0.1)
        assert est["mean_abs"] == pytest.approx(0.1)
        assert est["max_abs"] == pytest.approx(0.1)
        # uncommitted step contributed no estimation samples
        assert est["per_core"]["0"]["steps"] == 1
