"""End-to-end fabric runs with real worker processes and injected faults.

The acceptance criterion for the distributed driver: whatever happens to
the fleet — a worker SIGKILLed mid-shard, a hung worker whose lease is
stolen, a shard delivered twice, the coordinator itself restarting — the
final summaries are bit-identical to the serial local-pool run. Points
use ``bg=True`` (a few tens of milliseconds each) so worker startup can
never race the whole sweep to completion before the fault fires.
"""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.fabric import (
    FabricIncomplete,
    FileTransport,
    parse_fault,
    run_fabric_sweep,
    worker_main,
)
from repro.experiments.progress import EventLog
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.obs.registry import RunRegistry

SPEC = SweepSpec(
    name="fabric-tiny",
    base={"app": "jacobi2d", "scale": 0.05, "iterations": 5, "bg": True},
    axes={"cores": [4, 8], "balancer": ["none", "greedy"], "seed": [0, 1]},
)

FAST = dict(
    heartbeat_s=0.2,
    lease_timeout_s=2.0,
    poll_s=0.02,
    worker_poll_s=0.02,
    timeout_s=120.0,
)


def _serial(spec=SPEC):
    return run_sweep(spec, workers=1)


def _events_of(log, kind):
    return [e for e in log.events if e["event"] == kind]


# ---------------------------------------------------------------------------
# happy path: the two drivers are one engine
# ---------------------------------------------------------------------------


def test_fabric_matches_local_pool_bit_identically(tmp_path):
    serial = _serial()
    log = EventLog()
    fab = run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "job",
        workers=2,
        cache=ResultCache(tmp_path / "cache"),
        log=log,
        shard_size=2,
        **FAST,
    )
    assert serial.summaries() == fab.summaries()
    assert [r.label for r in serial.results] == [r.label for r in fab.results]
    # the merged stream saw real work from spawned workers
    workers = {
        e["worker"]
        for e in _events_of(log, "point_done")
        if not e.get("cached")
    }
    assert workers and workers != {"main"}
    assert len(_events_of(log, "shard_complete")) == 4


def test_fabric_registers_run_with_job_dir_artifact(tmp_path):
    registry = RunRegistry(tmp_path / "registry")
    log = EventLog()
    run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "job",
        workers=2,
        cache=ResultCache(tmp_path / "cache"),
        log=log,
        registry=registry,
        shard_size=2,
        **FAST,
    )
    (event,) = _events_of(log, "run_registered")
    record = registry.load(event["run_id"])
    assert record["kind"] == "sweep"
    assert record["artifacts"]["fabric_dir"] == str(tmp_path / "job")
    assert len(record["points"]) == 8


# ---------------------------------------------------------------------------
# fault drills
# ---------------------------------------------------------------------------


def test_worker_killed_mid_shard_is_reassigned_with_identical_summary(tmp_path):
    serial = _serial()
    log = EventLog()
    fab = run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "job",
        workers=2,
        cache=ResultCache(tmp_path / "cache"),
        log=log,
        shard_size=2,
        faults=[parse_fault("kill:w0:0:1")],  # die after 1 of 2 points
        **FAST,
    )
    assert serial.summaries() == fab.summaries()
    (dead,) = _events_of(log, "worker_dead")
    assert dead["worker"] == "w0"
    assert dead["exitcode"] == 137
    assert any(
        e["worker"] == "w0" for e in _events_of(log, "shard_reassigned")
    )


def test_hung_worker_lease_is_stolen_with_identical_summary(tmp_path):
    serial = _serial()
    log = EventLog()
    fab = run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "job",
        workers=2,
        cache=ResultCache(tmp_path / "cache"),
        log=log,
        shard_size=2,
        faults=[parse_fault("hang:w0:0:1")],
        **FAST,
    )
    assert serial.summaries() == fab.summaries()
    # the hung worker's shard went stale and was stolen — either the
    # coordinator expired it (shard_reassigned) or another worker's
    # claim scan broke it first; both end with someone else finishing
    # and submitting the shard the hung worker abandoned
    hung_shard = next(
        e["shard"]
        for e in _events_of(log, "shard_claimed")
        if e["worker"] == "w0"
    )
    result = FileTransport(tmp_path / "job").load_result(hung_shard)
    assert result is not None
    assert result["worker"] != "w0"


def test_duplicate_shard_delivery_is_idempotent(tmp_path):
    serial = _serial()
    log = EventLog()
    fab = run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "job",
        workers=2,
        cache=ResultCache(tmp_path / "cache"),
        log=log,
        shard_size=2,
        faults=[parse_fault("dup:w0:0")],
        **FAST,
    )
    assert serial.summaries() == fab.summaries()
    (dup,) = _events_of(log, "shard_duplicate")
    # the redelivered shard's result file is still a valid, complete record
    result = FileTransport(tmp_path / "job").load_result(dup["shard"])
    assert len(result["records"]) == 2


def test_coordinator_restart_resumes_without_recomputing_done_shards(tmp_path):
    serial = _serial()
    cache = ResultCache(tmp_path / "cache")
    # both workers complete their first shard, then die at their second
    # claim; with respawn off the run must fail resumable, not hang
    with pytest.raises(FabricIncomplete) as exc:
        run_fabric_sweep(
            SPEC,
            fabric_dir=tmp_path / "job",
            workers=2,
            cache=cache,
            shard_size=2,
            faults=[parse_fault("kill:w0:1:0"), parse_fault("kill:w1:1:0")],
            respawn=False,
            **FAST,
        )
    assert exc.value.done == 2
    assert exc.value.total == 4

    # second coordinator on the same directory: folds the two completed
    # shards from their result files and only runs the remaining two
    log = EventLog()
    fab = run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "job",
        workers=2,
        cache=cache,
        log=log,
        shard_size=2,
        **FAST,
    )
    assert serial.summaries() == fab.summaries()
    resumed = [e for e in _events_of(log, "point_done") if e.get("resumed")]
    assert len(resumed) == 4  # 2 shards x 2 points folded, not re-run
    # only the two pending shards' points were started by workers
    assert len(_events_of(log, "point_start")) == 4


def test_resume_rejects_a_different_spec(tmp_path):
    with pytest.raises(FabricIncomplete):
        run_fabric_sweep(
            SPEC,
            fabric_dir=tmp_path / "job",
            workers=2,
            cache=ResultCache(tmp_path / "cache"),
            shard_size=2,
            faults=[parse_fault("kill:w0:1:0"), parse_fault("kill:w1:1:0")],
            respawn=False,
            **FAST,
        )
    other = SweepSpec(name="other", base=dict(SPEC.base), axes=dict(SPEC.axes))
    with pytest.raises(ValueError, match="different job"):
        run_fabric_sweep(
            other, fabric_dir=tmp_path / "job", workers=2, **FAST
        )


# ---------------------------------------------------------------------------
# zero-miss runs spawn nothing
# ---------------------------------------------------------------------------


def test_fully_cached_fabric_run_spawns_no_workers(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    warm = run_sweep(SPEC, workers=1, cache=cache)

    def explode(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("a fully-cached sweep must not spawn workers")

    monkeypatch.setattr(
        "repro.experiments.fabric.coordinator._spawn_worker", explode
    )
    log = EventLog()
    fab = run_fabric_sweep(
        SPEC, fabric_dir=tmp_path / "job", workers=2, cache=cache, log=log,
        **FAST,
    )
    assert warm.summaries() == fab.summaries()
    assert fab.metrics.cache_hits == 8
    # no job was ever published either — there was nothing to distribute
    assert not FileTransport(tmp_path / "job").has_job()


# ---------------------------------------------------------------------------
# worker_main in-process (no spawn): the protocol from the worker's side
# ---------------------------------------------------------------------------


def _publish_hand_built_job(tmp_path, backend):
    """Publish a 4-point, 2-shard job under ``tmp_path / "job"``."""
    from repro.experiments.cache import code_fingerprint, point_key
    from repro.experiments.fabric.shards import plan_shards
    from repro.experiments.fabric.transport import JOB_SCHEMA

    points = SPEC.expand()[:4]
    fingerprint = code_fingerprint()
    shards = plan_shards([p.index for p in points], 2)
    transport = FileTransport(tmp_path / "job")
    transport.publish_job(
        {
            "schema": JOB_SCHEMA,
            "name": SPEC.name,
            "backend": backend,
            "cache_dir": str(tmp_path / "cache"),
            "points": [
                {
                    "index": p.index,
                    "label": p.label,
                    "key": point_key(p.params, fingerprint=fingerprint),
                    "params": p.params,
                }
                for p in points
            ],
            "shards": [
                {
                    "index": s.index,
                    "shard_id": s.shard_id,
                    "point_indices": list(s.point_indices),
                }
                for s in shards
            ],
            "faults": [],
            "config": {"poll_s": 0.02, "heartbeat_s": 0.2,
                       "lease_timeout_s": 2.0},
        }
    )
    return transport, points, shards


def test_worker_main_drains_a_published_job_in_process(tmp_path):
    from repro.experiments.cache import code_fingerprint, point_key

    transport, points, shards = _publish_hand_built_job(tmp_path, "fast")
    fingerprint = code_fingerprint()
    assert worker_main(str(tmp_path / "job"), "w0") == 0
    assert transport.completed_shard_ids() == ["s0000", "s0001"]
    for shard in shards:
        records = transport.load_result(shard.shard_id)["records"]
        assert [r["index"] for r in records] == list(shard.point_indices)
        assert all(r["worker"] == "w0" for r in records)
    # every executed point was published to the shared cache
    cache = ResultCache(tmp_path / "cache")
    for p in points:
        assert cache.get(point_key(p.params, fingerprint=fingerprint))


def test_worker_refuses_a_job_with_an_unknown_backend(tmp_path, capsys):
    """A stored job naming a retired backend (``auto``) is a one-line
    error before the worker registers or takes a lease."""
    from repro.cli import main

    transport, _, shards = _publish_hand_built_job(tmp_path, "auto")
    argv = ["fabric", "worker", str(tmp_path / "job"), "--worker-id", "w0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "repro fabric worker: error: unknown backend 'auto'\n"
    assert transport.leases_of("w0") == []
    assert transport.queued_shard_ids() == [s.shard_id for s in shards]
    assert not transport.worker_path("w0").exists()


# ---------------------------------------------------------------------------
# driver dispatch through run_sweep
# ---------------------------------------------------------------------------


def test_run_sweep_fabric_driver_is_the_coordinator(tmp_path):
    serial = _serial()
    fab = run_sweep(
        SPEC,
        workers=2,
        cache=ResultCache(tmp_path / "cache"),
        driver="fabric",
        fabric_dir=tmp_path / "job",
        fabric_options={"shard_size": 2, **FAST},
    )
    assert serial.summaries() == fab.summaries()


def test_fabric_driver_rejects_audit_dir(tmp_path):
    with pytest.raises(ValueError, match=r"probe\(s\) audit require driver='local'"):
        run_sweep(SPEC, driver="fabric", audit_dir=tmp_path / "audit")


def test_local_driver_rejects_fabric_options(tmp_path):
    with pytest.raises(ValueError, match="driver='fabric'"):
        run_sweep(SPEC, fabric_dir=tmp_path / "job")


def test_unknown_driver_rejected():
    with pytest.raises(ValueError, match="driver"):
        run_sweep(SPEC, driver="slurm")


# ---------------------------------------------------------------------------
# the flight recorder over a real drill
# ---------------------------------------------------------------------------


def test_kill_drill_leaves_a_complete_causal_trace(tmp_path):
    from repro.obs.fabtrace import assemble_trace, fabric_status

    registry = RunRegistry(tmp_path / "registry")
    log = EventLog()
    run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "job",
        workers=2,
        cache=ResultCache(tmp_path / "cache"),
        log=log,
        registry=registry,
        shard_size=2,
        faults=[parse_fault("kill:w0:0:1")],
        **FAST,
    )
    trace = assemble_trace(tmp_path / "job")
    # the acceptance bar: every executed point attributable to exactly
    # one committed shard attempt, with the kill and the steal visible
    assert trace.problems == []
    outcomes = {a.outcome for a in trace.attempts}
    assert "killed" in outcomes
    killed = next(a for a in trace.attempts if a.outcome == "killed")
    successor = next(
        a
        for a in trace.attempts
        if a.shard == killed.shard and a.committed
    )
    assert successor.worker != killed.worker
    assert successor.start >= killed.end
    assert trace.health["worker_deaths"] == 1
    assert trace.health["faults"]["kill"] == 1
    assert trace.health["committed"] == 4  # one per shard
    assert sum(1 for a in trace.attempts if a.committed) == 4

    # the same story is visible without assembly: status + registry
    status = fabric_status(tmp_path / "job")
    assert status["done"] == 4 and status["queued"] == []
    (event,) = _events_of(log, "run_registered")
    fabric = registry.load(event["run_id"])["fabric"]
    assert fabric["worker_deaths"] == 1
    assert fabric["steals"] >= 1
    assert "w0" in fabric["workers_seen"]


def test_tracing_off_is_bit_identical_and_leaves_no_clock_artifacts(tmp_path):
    serial = _serial()
    fab_off = run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "off",
        workers=2,
        cache=ResultCache(tmp_path / "cache-off"),
        shard_size=2,
        trace=False,
        **FAST,
    )
    fab_on = run_fabric_sweep(
        SPEC,
        fabric_dir=tmp_path / "on",
        workers=2,
        cache=ResultCache(tmp_path / "cache-on"),
        shard_size=2,
        trace=True,
        **FAST,
    )
    # the null-hook doctrine: the recorder observes, never perturbs
    assert serial.summaries() == fab_off.summaries() == fab_on.summaries()
    # tracing off leaves no recorder artifacts: no coordinator mirror,
    # no dual stamps in the worker streams
    assert not (tmp_path / "off" / "coordinator.jsonl").exists()
    for stream in (tmp_path / "off" / "events").glob("*.jsonl"):
        assert '"t_wall"' not in stream.read_text()
    assert (tmp_path / "on" / "coordinator.jsonl").exists()
    w_on = next((tmp_path / "on" / "events").glob("*.jsonl")).read_text()
    assert '"t_wall"' in w_on and '"t_mono"' in w_on
