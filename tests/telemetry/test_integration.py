"""End-to-end telemetry guarantees: purity, determinism, inspectability.

The contract the tentpole rests on: telemetry observes the simulation
without perturbing it, audited sweeps are byte-deterministic across
serial, parallel, and warm-cache execution, and the audit artifacts
round-trip through the inspect report.
"""

import hashlib
import json

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.runner import run_scenario
from repro.experiments.sweep import (
    SweepSpec,
    build_scenario,
    normalize_params,
    run_point,
    run_point_audited,
    run_sweep,
)
from repro.telemetry import AuditTrail, audit_summary
from repro.telemetry.inspect import (
    format_inspect_text,
    inspect_audit,
    load_audit_dir,
)

TINY = {"app": "jacobi2d", "scale": 0.05, "iterations": 6, "lb_period": 2}

#: Every point runs a balancer against injected background load so the
#: audit trail has migrations, rejections, and bg_true samples to check.
SPEC = SweepSpec(
    name="audited",
    base={**TINY, "bg": True, "balancer": "refine-vm", "cores": 4},
    axes={"seed": [0, 1]},
)


def _jsonl_digests(audit_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(audit_dir.glob("*.jsonl"))
    }


# ---------------------------------------------------------------------------
# observational purity
# ---------------------------------------------------------------------------


class TestObservationalPurity:
    def test_audited_run_matches_plain_run_exactly(self):
        """Attaching telemetry must not change a single simulated number."""
        params = normalize_params({**TINY, "cores": 4, "bg": True,
                                   "balancer": "refine-vm"})
        plain = run_point(params)
        audited, records, trace = run_point_audited(params)
        assert audited == plain
        assert records, "a balanced run produces audit records"
        assert trace is not None

    def test_bg_estimator_tracks_injected_truth(self):
        """Eq. (2): O_p residual estimation vs the true injected bg load.

        In this simulator the estimator is exact up to float rounding, so
        the audit's estimation error is a regression canary — any drift
        means the window accounting broke.
        """
        params = normalize_params({**TINY, "cores": 4, "bg": True,
                                   "balancer": "refine-vm"})
        _, records, _ = run_point_audited(params)
        est = audit_summary(records)["estimation_error"]
        assert est["max_abs"] < 1e-9

    @pytest.mark.parametrize("backend", ["events", "fast"])
    def test_unaudited_rerun_leaves_the_first_trail_unchanged(self, backend):
        """A run without an audit detaches the scenario's balancer from
        the trail an earlier run of the same ``Scenario`` attached."""
        scenario = build_scenario(
            normalize_params({**TINY, "cores": 4, "bg": True,
                              "balancer": "refine-vm"})
        )
        trail = AuditTrail()
        run_scenario(scenario, backend=backend, audit=trail)
        assert trail.records
        before = json.dumps(trail.records, sort_keys=True)
        run_scenario(scenario, backend=backend)
        assert json.dumps(trail.records, sort_keys=True) == before


# ---------------------------------------------------------------------------
# audited sweeps
# ---------------------------------------------------------------------------


class TestAuditedSweep:
    def test_audit_dir_gets_jsonl_and_trace_per_point(self, tmp_path):
        res = run_sweep(SPEC, cache=ResultCache(tmp_path / "cache"),
                        audit_dir=tmp_path / "audit")
        jsonls = sorted((tmp_path / "audit").glob("*.jsonl"))
        traces = sorted((tmp_path / "audit").glob("*.trace.json"))
        assert len(jsonls) == len(traces) == len(res.results) == 2
        # filenames are index-prefixed slugs of the point labels
        assert jsonls[0].name.startswith("000-")
        for r in res.results:
            assert r.audit is not None
            assert r.audit["lb_steps"] > 0

    def test_point_audit_summary_matches_written_records(self, tmp_path):
        res = run_sweep(SPEC, audit_dir=tmp_path)
        by_file = load_audit_dir(tmp_path)
        for r in res.results:
            stem = f"{r.index:03d}-" + sorted(by_file)[r.index].split("-", 1)[1]
            assert audit_summary(by_file[stem]) == r.audit

    def test_serial_parallel_and_warm_cache_are_byte_identical(self, tmp_path):
        """The acceptance criterion: audit output is execution-strategy-free."""
        cache = ResultCache(tmp_path / "cache")
        serial = run_sweep(SPEC, workers=1, cache=cache,
                           audit_dir=tmp_path / "serial")
        parallel = run_sweep(SPEC, workers=2,
                             cache=ResultCache(tmp_path / "cache2"),
                             audit_dir=tmp_path / "parallel")
        warm = run_sweep(SPEC, workers=1, cache=cache,
                         audit_dir=tmp_path / "warm")
        digests = _jsonl_digests(tmp_path / "serial")
        assert digests == _jsonl_digests(tmp_path / "parallel")
        assert digests == _jsonl_digests(tmp_path / "warm")
        assert warm.metrics.hit_rate == 1.0
        assert ([r.audit for r in serial.results]
                == [r.audit for r in parallel.results]
                == [r.audit for r in warm.results])

    def test_plain_cache_entry_is_not_enough_for_an_audited_sweep(self, tmp_path):
        """Entries cached without audit extras must be re-executed."""
        cache = ResultCache(tmp_path / "cache")
        plain = run_sweep(SPEC, cache=cache)
        audited = run_sweep(SPEC, cache=cache, audit_dir=tmp_path / "audit")
        assert audited.metrics.cache_hits == 0
        assert audited.summaries() == plain.summaries()
        # ...and afterwards both audited and plain sweeps hit
        assert run_sweep(SPEC, cache=cache).metrics.hit_rate == 1.0
        rewarm = run_sweep(SPEC, cache=cache, audit_dir=tmp_path / "warm")
        assert rewarm.metrics.hit_rate == 1.0

    def test_warm_hits_rewrite_jsonl_but_not_traces(self, tmp_path):
        """Chrome traces come from live runs only; audit JSONL is replayed."""
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPEC, cache=cache, audit_dir=tmp_path / "cold")
        run_sweep(SPEC, cache=cache, audit_dir=tmp_path / "warm")
        assert len(list((tmp_path / "warm").glob("*.jsonl"))) == 2
        assert list((tmp_path / "warm").glob("*.trace.json")) == []


# ---------------------------------------------------------------------------
# Perfetto / Chrome trace format
# ---------------------------------------------------------------------------


class TestTraceFormat:
    @pytest.fixture(scope="class")
    def trace_events(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("audit")
        run_sweep(SweepSpec(name="one", base=SPEC.base), audit_dir=out)
        (path,) = out.glob("*.trace.json")
        return json.load(open(path))

    def test_counter_events_follow_trace_event_format(self, trace_events):
        counters = [e for e in trace_events if e["ph"] == "C"]
        assert counters, "audited traces must carry counter samples"
        for e in counters:
            assert set(e) == {"name", "cat", "ph", "pid", "ts", "args"}
            assert e["cat"] == "lb-audit"
            assert e["pid"] == 1
            assert e["ts"] >= 0 and isinstance(e["ts"], float)
            assert e["args"] and all(
                isinstance(v, (int, float)) for v in e["args"].values()
            )

    def test_expected_counter_tracks_present(self, trace_events):
        names = {e["name"] for e in trace_events if e["ph"] == "C"}
        assert names == {
            "per-core load (s)",
            "O_p estimated (s)",
            "O_p true (s)",
            "migrations (cumulative)",
        }

    def test_counter_timestamps_are_monotonic_per_track(self, trace_events):
        by_name = {}
        for e in trace_events:
            if e["ph"] == "C":
                by_name.setdefault(e["name"], []).append(e["ts"])
        for name, ts in by_name.items():
            assert ts == sorted(ts), name

    def test_counters_coexist_with_task_slices(self, trace_events):
        phases = {e["ph"] for e in trace_events}
        assert "X" in phases and "C" in phases and "M" in phases


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


class TestInspect:
    def test_report_over_a_directory(self, tmp_path):
        run_sweep(SPEC, audit_dir=tmp_path)
        report = inspect_audit(tmp_path)
        assert len(report["sources"]) == 2
        combined = report["combined"]
        assert combined["lb_steps"] > 0
        assert combined["estimation_error"]["max_abs"] < 1e-9
        assert combined["top_migrations"]
        assert "refine-vm-interference" in report["strategies"]

    def test_single_file_and_dir_agree_per_source(self, tmp_path):
        run_sweep(SweepSpec(name="one", base=SPEC.base), audit_dir=tmp_path)
        (path,) = tmp_path.glob("*.jsonl")
        from_file = inspect_audit(path)
        from_dir = inspect_audit(tmp_path)
        assert from_file["sources"] == from_dir["sources"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_audit_dir(tmp_path / "nope")

    def test_migration_chares_are_keys_not_records(self, tmp_path):
        """Audit records hold ``[array, index]`` chare keys, never a
        ``Migration`` (a tuple too), which the renderer's
        ``isinstance(chare, (list, tuple))`` test would take for one."""
        params = normalize_params({**SPEC.base, "seed": 0})
        _, records, _ = run_point_audited(params)
        chares = [m["chare"] for r in records for m in r["migrations"]]
        assert chares
        for chare in chares:
            assert type(chare) is list and len(chare) == 2
            assert isinstance(chare[0], str) and type(chare[1]) is int
        run_sweep(SPEC, audit_dir=tmp_path)
        report = inspect_audit(tmp_path)
        text = format_inspect_text(report)
        for m in report["combined"]["top_migrations"]:
            assert f"{m['chare'][0]}[{m['chare'][1]}]" in text

    def test_top_limits_migration_list(self, tmp_path):
        run_sweep(SPEC, audit_dir=tmp_path)
        full = inspect_audit(tmp_path, top=1000)["combined"]
        capped = inspect_audit(tmp_path, top=1)["combined"]
        assert len(capped["top_migrations"]) == 1
        assert capped["top_migrations"][0] == full["top_migrations"][0]
