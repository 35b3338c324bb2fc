"""The ``"schema": 1`` progress-event stream contract.

Round-trips every event type a real smoke sweep emits, serially and
from a 2-worker pool, through the parser, and pins the
forward-compatibility rule: consumers validate the envelope only, so
unknown fields and unknown event types must parse.
"""

import json

import pytest

from repro.experiments.progress import (
    PROGRESS_SCHEMA,
    EventLog,
    parse_progress_line,
    read_progress_jsonl,
)
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.obs.registry import RunRegistry


@pytest.fixture(scope="module", params=[1, 2], ids=["workers=1", "workers=2"])
def smoke_stream(request, tmp_path_factory):
    """Progress JSONL from one real (tiny) registered sweep, run
    serially and on a 2-worker pool."""
    tmp = tmp_path_factory.mktemp("progress")
    spec = SweepSpec(
        name="tiny",
        base={"app": "jacobi2d", "scale": 0.05, "iterations": 5, "bg": True},
        axes={"balancer": ["none", "refine-vm"]},
    )
    path = tmp / "events.jsonl"
    with open(path, "w") as fh:
        run_sweep(
            spec,
            workers=request.param,
            log=EventLog(stream=fh),
            registry=RunRegistry(tmp / "registry"),
        )
    return path


def test_every_emitted_event_round_trips(smoke_stream):
    raw_lines = smoke_stream.read_text().splitlines()
    events = [parse_progress_line(line) for line in raw_lines]
    assert all(e is not None for e in events)
    assert all(e["schema"] == PROGRESS_SCHEMA for e in events)

    by_type = {}
    for e in events:
        by_type.setdefault(e["event"], []).append(e)
    assert set(by_type) == {
        "sweep_start", "point_start", "point_done", "sweep_done",
        "run_registered",
    }
    assert len(by_type["point_start"]) == len(by_type["point_done"]) == 2
    # the reader agrees with line-by-line parsing
    assert read_progress_jsonl(smoke_stream) == events
    # t offsets are monotonic within the stream
    ts = [e["t"] for e in events]
    assert ts == sorted(ts)
    # the registered run id round-trips
    (reg,) = by_type["run_registered"]
    assert isinstance(reg["run_id"], str) and "-sweep-" in reg["run_id"]


def test_event_field_vocabulary(smoke_stream):
    events = read_progress_jsonl(smoke_stream)
    start = next(e for e in events if e["event"] == "sweep_start")
    assert {"spec", "points", "workers", "cached"} <= set(start)
    done = next(e for e in events if e["event"] == "point_done")
    assert {"label", "key", "cached", "wall_s", "worker"} <= set(done)
    final = next(e for e in events if e["event"] == "sweep_done")
    assert {"points", "executed", "cache_hits", "hit_rate", "elapsed_s"} <= set(final)


def test_unknown_fields_and_event_types_are_accepted():
    # a future event type with never-seen fields still parses
    line = json.dumps({
        "schema": PROGRESS_SCHEMA, "event": "quantum_checkpoint",
        "t": 1.0, "entanglement": {"pairs": 3}, "color": "octarine",
    })
    record = parse_progress_line(line)
    assert record["event"] == "quantum_checkpoint"
    assert record["color"] == "octarine"
    # known event with an extra field: same story
    line = json.dumps({
        "schema": PROGRESS_SCHEMA, "event": "point_done", "t": 2.0,
        "label": "a", "key": "k", "cached": False, "wall_s": 0.1,
        "worker": "main", "carbon_footprint_g": 0.002,
    })
    assert parse_progress_line(line)["carbon_footprint_g"] == 0.002


def test_envelope_violations_raise():
    assert parse_progress_line("") is None
    assert parse_progress_line("   \n") is None
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_progress_line("{nope")
    with pytest.raises(ValueError, match="not a JSON object"):
        parse_progress_line("[1, 2]")
    with pytest.raises(ValueError, match="no string 'event'"):
        parse_progress_line(json.dumps({"schema": PROGRESS_SCHEMA, "t": 0.0}))
    with pytest.raises(ValueError, match="unsupported progress schema"):
        parse_progress_line(json.dumps({"schema": 99, "event": "sweep_start"}))
    with pytest.raises(ValueError, match="unsupported progress schema"):
        parse_progress_line(json.dumps({"event": "sweep_start"}))


def test_reader_tolerates_truncated_final_line(tmp_path):
    path = tmp_path / "events.jsonl"
    good = json.dumps({"schema": PROGRESS_SCHEMA, "event": "sweep_start", "t": 0.0})
    path.write_text(good + "\n" + '{"schema": 1, "event": "point_')
    events = read_progress_jsonl(path)
    assert len(events) == 1 and events[0]["event"] == "sweep_start"

    # ... but a malformed line mid-file means the file is not a log
    path.write_text('{"broken\n' + good + "\n")
    with pytest.raises(ValueError, match=":1:"):
        read_progress_jsonl(path)


def test_on_event_hook_sees_every_record():
    seen = []
    log = EventLog(on_event=seen.append)
    log.emit("sweep_start", spec="x", points=0, workers=1, cached=0)
    log.emit("sweep_done", points=0)
    assert [e["event"] for e in seen] == ["sweep_start", "sweep_done"]
    assert seen == log.events  # the hook sees the exact records
