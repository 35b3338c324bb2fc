"""Live monitoring: the renderer over a replayed event stream.

No engine, no TTY, no clock — the renderer is pure state, which is the
point: ``repro watch`` / ``sweep --live`` can be tested end to end from
canned events without perturbing (or even importing) the sweep engine.
"""

import io
import json

from repro.experiments.progress import PROGRESS_SCHEMA
from repro.obs.watch import LiveWatch, WatchRenderer, replay, watch_file


def _ev(event, t=0.0, **fields):
    return {"schema": PROGRESS_SCHEMA, "event": event, "t": t, **fields}


EVENTS = [
    _ev("sweep_start", 0.0, spec="smoke", points=4, workers=2, cached=1),
    _ev("point_start", 0.01, label="a", key="k1"),
    _ev("point_done", 0.02, label="a", key="k1", cached=True, wall_s=0.0,
        worker="cache"),
    _ev("point_start", 0.03, label="b", key="k2"),
    _ev("point_done", 0.5, label="b", key="k2", cached=False, wall_s=0.4,
        worker="pid:1"),
    _ev("point_start", 0.55, label="c", key="k3"),
]


def test_renderer_midstream_state():
    r = replay(EVENTS)
    assert r.spec == "smoke" and r.total == 4 and r.workers == 2
    assert r.done == 2 and r.cached == 1 and r.executed == 1
    assert r.in_flight == ["c"]
    assert not r.finished
    assert r.throughput() > 0
    # 2 remaining points at ~0.4s each over 2 workers
    assert r.eta_s() == (4 - 2) * 0.4 / 2

    frame = r.render()
    assert "sweep smoke — 2/4 points (1 cached) workers=2" in frame
    assert "50.0%" in frame
    assert "running: c" in frame
    assert "pid:1: 1 done, last b" in frame
    assert "b [pid:1 0.40s]" in frame


def test_renderer_finishes_and_reports_registration():
    done = EVENTS + [
        _ev("point_done", 0.9, label="c", key="k3", cached=False, wall_s=0.3,
            worker="pid:2"),
        _ev("point_done", 1.0, label="d", key="k4", cached=False, wall_s=0.35,
            worker="pid:1"),
        _ev("sweep_done", 1.1, points=4, executed=3, cache_hits=1,
            hit_rate=0.25, elapsed_s=1.1, executed_wall_s=1.05,
            workers=2, worker_utilization=0.48),
        _ev("run_registered", 1.15, run_id="20260806T100000Z-sweep-abcd1234"),
    ]
    r = replay(done)
    assert r.finished
    frame = r.render()
    assert "4/4" in frame and "100.0%" in frame
    assert "executed=3 cache_hits=1 (25%)" in frame
    assert "utilization=48%" in frame
    assert "registered as run 20260806T100000Z-sweep-abcd1234" in frame
    assert "eta: 0s" in frame


def test_unknown_events_and_fields_are_ignored():
    weird = [
        _ev("sweep_start", 0.0, spec="s", points=1, workers=1, cached=0,
            flux_capacitance=88),          # unknown field
        _ev("telepathy_sync", 0.1, vibes="good"),  # unknown event type
        _ev("point_done", 0.2, label="a", key="k", cached=False, wall_s=0.1,
            worker="main", extra_field={"nested": True}),
    ]
    r = replay(weird)
    assert r.done == 1 and r.finished is False
    assert "1/1" in r.render()  # state unperturbed by the unknowns


def test_watch_file_replays_and_renders(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    events = EVENTS + [_ev("sweep_done", 1.0, points=4, executed=3,
                           cache_hits=1, hit_rate=0.25, elapsed_s=1.0,
                           executed_wall_s=1.0, workers=2,
                           worker_utilization=0.5)]
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    out = io.StringIO()
    assert watch_file(path, out=out) == 0
    frame = out.getvalue()
    assert "sweep smoke — 2/4 points (1 cached)" in frame
    assert "done: executed=3 cache_hits=1 (25%)" in frame
    assert "\x1b" not in frame  # no ANSI on a non-tty


def test_watch_file_skips_partial_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        json.dumps(EVENTS[0]) + "\n" + '{"schema": 1, "event": "point_do'
    )
    out = io.StringIO()
    assert watch_file(path, out=out) == 0
    assert "sweep smoke" in out.getvalue()


def test_watch_file_missing_is_a_clean_error(tmp_path, capsys):
    assert watch_file(tmp_path / "nope.jsonl", out=io.StringIO()) == 1
    assert "no progress file" in capsys.readouterr().err


def test_watch_file_follow_stops_on_timeout(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(EVENTS[0]) + "\n")  # never finishes
    out = io.StringIO()
    assert watch_file(path, out=out, follow=True, interval=0.01,
                      timeout_s=0.05) == 0
    assert "sweep smoke" in out.getvalue()


def test_live_watch_on_pipe_prints_only_final_frame():
    out = io.StringIO()  # not a tty
    live = LiveWatch(out)
    for event in EVENTS:
        live.on_event(event)
    assert out.getvalue() == ""  # silent mid-run on a pipe
    live.on_event(_ev("sweep_done", 1.0, points=4, executed=3, cache_hits=1,
                      hit_rate=0.25, elapsed_s=1.0, executed_wall_s=1.0,
                      workers=2, worker_utilization=0.5))
    assert "sweep smoke" in out.getvalue()
    assert out.getvalue().count("sweep smoke") == 1


def test_eta_and_throughput_edge_cases():
    r = WatchRenderer()
    assert r.throughput() is None and r.eta_s() is None
    r.feed(_ev("sweep_start", 0.0, spec="s", points=0, workers=0, cached=0))
    assert "workers=?" in r.render()  # renders before any completion


# ---------------------------------------------------------------------------
# local-pool streams: interleaved workers, dedup, per-worker rates
# ---------------------------------------------------------------------------

POOL_EVENTS = [
    _ev("sweep_start", 0.0, spec="pool", points=4, workers=2, cached=0),
    # the pool announces every block's points as it submits the block
    _ev("point_start", 0.01, label="a", key="ka"),
    _ev("point_start", 0.01, label="b", key="kb"),
    _ev("point_start", 0.01, label="c", key="kc"),
    _ev("point_start", 0.01, label="d", key="kd"),
    # completions from two pool processes, in the order blocks finish
    _ev("point_done", 0.2, label="a", key="ka", cached=False, wall_s=0.2,
        worker="pid:101"),
    _ev("point_done", 0.3, label="c", key="kc", cached=False, wall_s=0.3,
        worker="pid:102"),
    _ev("point_done", 0.4, label="b", key="kb", cached=False, wall_s=0.2,
        worker="pid:101"),
    _ev("point_done", 0.6, label="d", key="kd", cached=False, wall_s=0.3,
        worker="pid:102"),
]


def test_per_worker_throughput_from_interleaved_streams():
    r = replay(POOL_EVENTS)
    rates = r.worker_throughput()
    # exact: pid:101 did 2 points in 0.4s busy, pid:102 did 2 in 0.6s busy
    assert rates["pid:101"] == 2 / 0.4
    assert rates["pid:102"] == 2 / 0.6
    frame = r.render()
    assert "pid:101: 2 done, last b (5.00/s)" in frame
    assert "pid:102: 2 done, last d (3.33/s)" in frame
    assert "4/4 points" in frame
    assert "running:" not in frame


def test_redelivered_point_done_counts_once_toward_progress():
    # 'sweep --jsonl' appends, so a re-run's cache hits follow the first
    # run's completions in the same file
    events = POOL_EVENTS + [
        _ev("point_done", 0.7, label="a", key="ka", cached=True, wall_s=0.0,
            worker="cache"),
    ]
    r = replay(events)
    assert r.done == 4  # not 5
    assert r.cached == 0  # first completion of 'a' was an execution
    assert "4/4 points" in r.render()


def test_pool_stream_round_trips_through_watch_replay(tmp_path, capsys):
    events = POOL_EVENTS + [
        _ev("sweep_done", 1.0, points=4, executed=4, cache_hits=0,
            hit_rate=0.0, elapsed_s=1.0, executed_wall_s=1.0, workers=2,
            worker_utilization=0.5),
    ]
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    out = io.StringIO()
    assert watch_file(path, out=out, require_finished=True) == 0
    frame = out.getvalue()
    assert "pid:101: 2 done" in frame and "pid:102: 2 done" in frame
    assert "4/4 points" in frame


def test_watch_replay_fails_on_unfinished_stream(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text(
        "".join(json.dumps(e) + "\n" for e in POOL_EVENTS)
    )
    out = io.StringIO()
    assert watch_file(path, out=out, require_finished=True) == 1
    assert "no sweep_done" in capsys.readouterr().err
    assert "4/4 points" in out.getvalue()  # the frame still prints


def test_watch_directory_without_a_job_is_a_clean_error(tmp_path, capsys):
    assert watch_file(tmp_path, out=io.StringIO()) == 1
    assert "no progress file" in capsys.readouterr().err
