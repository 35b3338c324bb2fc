"""Tests for the command-line interface (tiny scales)."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.sweep_presets import smoke_spec


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_fig1_command(capsys):
    assert main(["fig1", "--scale", "0.1", "--iterations", "8"]) == 0
    out = capsys.readouterr().out
    assert "(a) no BG task" in out
    assert "core   3" in out


def test_fig3_command(capsys):
    assert main(["fig3", "--scale", "0.1", "--lb-period", "3"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_fig2_command_with_filters(capsys):
    rc = main(
        [
            "fig2",
            "--scale", "0.2",
            "--iterations", "20",
            "--cores", "8",
            "--apps", "jacobi2d",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "jacobi2d" in out
    assert "mol3d" not in out


def test_fig4_command(capsys):
    rc = main(
        ["fig4", "--scale", "0.2", "--iterations", "20", "--cores", "8",
         "--apps", "wave2d"]
    )
    assert rc == 0
    assert "Figure 4" in capsys.readouterr().out


def test_demo_command(capsys):
    rc = main(["demo", "--scale", "0.2", "--iterations", "20", "--cores", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "interfered, noLB" in out
    assert "interfered, LB" in out


def test_output_directory(tmp_path, capsys):
    rc = main(
        ["fig1", "--scale", "0.1", "--iterations", "8", "--output", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "fig1.txt").exists()
    assert "(a) no BG task" in (tmp_path / "fig1.txt").read_text()


def test_headline_exit_code_reflects_claim(capsys):
    # a healthy configuration meets the claim -> exit 0
    rc = main(
        ["headline", "--scale", "0.5", "--iterations", "60", "--cores", "16",
         "--apps", "mol3d"]
    )
    assert rc == 0


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["demo", "--app", "linpack"])


def test_sweep_requires_spec_or_preset():
    with pytest.raises(SystemExit):
        main(["sweep"])


def test_sweep_smoke_preset_with_cache_and_jsonl(tmp_path, capsys):
    import json

    cache_dir = tmp_path / "cache"
    jsonl = tmp_path / "events.jsonl"
    args = [
        "sweep", "--preset", "smoke",
        "--cache-dir", str(cache_dir),
        "--jsonl", str(jsonl),
        "--output", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "sweep smoke — 4 scenarios" in out
    assert "cache_hits=0" in out
    assert (tmp_path / "sweep_smoke.txt").exists()
    events = [json.loads(l) for l in jsonl.read_text().splitlines()]
    assert events[0]["event"] == "sweep_start"
    assert events[-2]["event"] == "sweep_done"
    assert events[-1]["event"] == "run_registered"  # registry ingest is on

    # second run: pure cache hit
    assert main(args) == 0
    assert "cache_hits=4 (100%)" in capsys.readouterr().out


def test_sweep_from_spec_file_with_workers(tmp_path, capsys):
    import json

    spec = {
        "name": "filespec",
        "base": {"app": "jacobi2d", "scale": 0.05, "iterations": 5},
        "axes": {"cores": [2, 4]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc = main(
        ["sweep", "--spec", str(path), "--workers", "2", "--no-cache"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep filespec — 2 scenarios" in out
    assert "workers=2" in out


def test_sweep_bad_spec_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "base": {"frobnicate": 3}}')
    assert main(["sweep", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "repro sweep: error:" in err
    assert "frobnicate" in err

    assert main(["sweep", "--spec", str(tmp_path / "nope.json")]) == 2
    assert "repro sweep: error:" in capsys.readouterr().err

    assert main(["sweep", "--preset", "smoke", "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_sweep_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "smoke", "--no-cache", "--no-registry",
              "--backend", "batch"])
    assert exc.value.code == 2
    assert "invalid choice: 'batch'" in capsys.readouterr().err


def test_sweep_audit_on_fast_backend_matches_events(tmp_path, capsys):
    dirs = {}
    for backend in ("fast", "events"):
        dirs[backend] = tmp_path / backend
        rc = main(["sweep", "--preset", "smoke", "--no-cache", "--no-registry",
                   "--backend", backend, "--audit", str(dirs[backend])])
        assert rc == 0
    assert capsys.readouterr().err == ""
    names = sorted(f.name for f in dirs["events"].iterdir())
    assert len(names) == 2 * len(smoke_spec().expand())
    assert sorted(f.name for f in dirs["fast"].iterdir()) == names
    for name in names:
        assert (dirs["fast"] / name).read_bytes() == (
            dirs["events"] / name
        ).read_bytes()


def test_explain_and_lineage_read_one_combined_run(tmp_path, capsys):
    import json

    from repro.obs.registry import RunRegistry

    reg = tmp_path / "reg"
    assert main(["sweep", "--preset", "smoke", "--ledger", "--lineage",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(reg)]) == 0
    capsys.readouterr()
    for command in ("explain", "lineage"):
        assert main([command, "latest", "--registry", str(reg), "--json"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert len(points) == 4
        assert all(p["recomputed"] is False for p in points)
    registry = RunRegistry(reg)
    record = registry.load(registry.resolve("latest"))
    assert record["ledger"]["points"] == record["lineage"]["points"] == 4


def test_sweep_fig2_preset_emits_penalty_and_energy_tables(capsys):
    cell = ["--apps", "jacobi2d", "--cores", "4", "--scale", "0.05",
            "--iterations", "5"]
    rc = main(["sweep", "--preset", "fig2", *cell, "--no-cache", "--no-registry"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2 — timing penalty vs. interference (percent)" in out
    assert "Figure 4 — power draw and energy overhead" in out
    # the figure commands print the very tables the sweep appends
    for figure in ("fig2", "fig4"):
        assert main([figure, *cell]) == 0
        table = capsys.readouterr().out
        assert table.count("\n") > 3 and table in out


def test_sweep_fig2_spec_missing_a_cell_point_is_refused(tmp_path, capsys):
    import json

    from repro.obs.registry import RunRegistry

    spec = tmp_path / "fig2.json"
    spec.write_text(json.dumps({
        "name": "fig2",
        "base": {"scale": 0.05, "iterations": 5},
        "points": [{"app": "jacobi2d", "cores": 4, "label": "jacobi2d/4/base"}],
    }))
    reg = tmp_path / "reg"
    rc = main(["sweep", "--spec", str(spec), "--no-cache", "--registry", str(reg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "repro sweep: error: Figure 2/4 cell jacobi2d/4 has no point "
        "labelled jacobi2d/4/base_lb\n"
    )
    assert RunRegistry(reg).list() == []


def test_sweep_audit_then_inspect(tmp_path, capsys):
    audit_dir = tmp_path / "audit"
    rc = main(
        ["sweep", "--preset", "smoke", "--no-cache", "--audit", str(audit_dir)]
    )
    assert rc == 0
    capsys.readouterr()
    jsonls = sorted(audit_dir.glob("*.jsonl"))
    traces = sorted(audit_dir.glob("*.trace.json"))
    assert len(jsonls) == len(traces) == 4

    assert main(["inspect", str(audit_dir)]) == 0
    out = capsys.readouterr().out
    assert "LB steps across 4 source(s)" in out
    assert "Eq. 2 estimation error" in out
    assert "Candidate decisions by reason" in out

    assert main(["inspect", str(audit_dir), "--json", "--top", "2"]) == 0
    import json

    report = json.loads(capsys.readouterr().out)
    assert len(report["combined"]["top_migrations"]) <= 2
    assert report["combined"]["lb_steps"] > 0


def test_inspect_errors_are_clean(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing")]) == 2
    assert "repro inspect: error:" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    assert main(["inspect", str(bad)]) == 2
    assert "repro inspect: error:" in capsys.readouterr().err

    assert main(["inspect", str(tmp_path), "--top", "-1"]) == 2
    assert "--top must be >= 0" in capsys.readouterr().err


def test_log_level_flag_configures_root_logger(capsys):
    import logging

    root = logging.getLogger()
    before = root.level
    try:
        assert main(["--log-level", "warning", "demo", "--scale", "0.05"]) == 0
        assert root.level == logging.WARNING
    finally:
        root.setLevel(before)


# ---------------------------------------------------------------------------
# observability: registry, watch, report, anomaly gate
# ---------------------------------------------------------------------------


def _registry_args(tmp_path):
    return ["--registry", str(tmp_path / "registry")]


def test_sweep_registers_run_then_runs_list_shows_it(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbeef")
    rc = main(["sweep", "--preset", "smoke", "--no-cache",
               "--registry", str(tmp_path / "registry")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "[registered as run " in err

    assert main(["runs"] + _registry_args(tmp_path) + ["list"]) == 0
    out = capsys.readouterr().out
    assert "1 registered run(s)" in out
    assert "sweep" in out and "smoke" in out
    assert "feedbeef" in out  # git sha in the listing

    # the full record carries per-point seeds and metrics
    assert main(["runs"] + _registry_args(tmp_path) + ["show", "latest"]) == 0
    import json

    record = json.loads(capsys.readouterr().out)
    assert record["git_sha"] == "feedbeef"
    assert len(record["points"]) == 4
    assert all("seed" in p for p in record["points"])
    assert all("app_time" in p["summary"] for p in record["points"])
    assert record["metrics"]["points"] == 4


def test_sweep_no_registry_skips_ingest(tmp_path, capsys):
    rc = main(["sweep", "--preset", "smoke", "--no-cache", "--no-registry",
               "--registry", str(tmp_path / "registry")])
    assert rc == 0
    assert "[registered as run" not in capsys.readouterr().err
    assert main(["runs"] + _registry_args(tmp_path) + ["list"]) == 0
    assert "is empty" in capsys.readouterr().out


def test_sweep_live_renders_final_frame_to_stderr(tmp_path, capsys):
    rc = main(["sweep", "--preset", "smoke", "--no-cache", "--live",
               "--registry", str(tmp_path / "registry")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "sweep smoke — 4/4 points" in err
    assert "done: executed=4" in err


def test_watch_replays_a_jsonl_progress_file(tmp_path, capsys):
    jsonl = tmp_path / "events.jsonl"
    rc = main(["sweep", "--preset", "smoke", "--no-cache", "--no-registry",
               "--jsonl", str(jsonl)])
    assert rc == 0
    capsys.readouterr()
    assert main(["watch", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "sweep smoke — 4/4 points" in out
    assert "100.0%" in out

    assert main(["watch", str(tmp_path / "nope.jsonl")]) == 1
    assert "no progress file" in capsys.readouterr().err

    assert main(["watch", str(jsonl), "--interval", "0"]) == 2
    assert "--interval must be > 0" in capsys.readouterr().err


def test_runs_check_flags_injected_outlier_with_nonzero_exit(tmp_path, capsys,
                                                             monkeypatch):
    """Acceptance: a 3x penalty outlier in a registry fixture makes
    ``repro runs check`` exit non-zero with an error finding."""
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbeef")
    from repro.obs.registry import RunRegistry
    from tests.obs.conftest import PAIRED_POINTS, build_run

    registry = RunRegistry(tmp_path / "registry")
    for i in range(2):
        spec, result = build_run("smoke", PAIRED_POINTS)
        registry.ingest_sweep(spec, result,
                              created_utc=f"2026-08-06T1{i}:00:00Z")
    outlier = [dict(p) for p in PAIRED_POINTS]
    outlier[1] = {**outlier[1], "app_time": 4.5}
    spec, result = build_run("smoke", outlier)
    registry.ingest_sweep(spec, result, created_utc="2026-08-06T12:00:00Z")

    rc = main(["runs"] + _registry_args(tmp_path) + ["check", "latest"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ERROR" in out and "penalty-outlier" in out
    assert "3.00x" in out

    # json mode carries the same findings
    rc = main(["runs"] + _registry_args(tmp_path) + ["check", "latest",
                                                     "--json"])
    assert rc == 1
    import json

    findings = json.loads(capsys.readouterr().out)
    assert any(f["rule"] == "penalty-outlier" and f["severity"] == "error"
               for f in findings)

    # the earlier runs are clean (warnings at most -> exit 0)
    first = registry.list()[0]["run_id"]
    assert main(["runs"] + _registry_args(tmp_path) + ["check", first]) == 0


def test_runs_check_clean_run_exits_zero(tmp_path, capsys):
    assert main(["sweep", "--preset", "smoke", "--no-cache",
                 "--registry", str(tmp_path / "registry")]) == 0
    capsys.readouterr()
    rc = main(["runs"] + _registry_args(tmp_path) + ["check"])
    assert rc == 0  # smoke lb-no-benefit findings are warnings, never errors
    out = capsys.readouterr().out
    assert "0 error(s)" in out or "no findings" in out


def test_runs_diff_between_two_registered_sweeps(tmp_path, capsys):
    for _ in range(2):
        assert main(["sweep", "--preset", "smoke", "--no-cache",
                     "--registry", str(tmp_path / "registry")]) == 0
    capsys.readouterr()
    runs_prefix = ["runs"] + _registry_args(tmp_path)
    # deterministic engine: identical params -> identical summaries
    import json

    assert main(runs_prefix + ["diff", "--json", "latest:smoke", "latest"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["only_a"] == diff["only_b"] == []
    assert main(runs_prefix + ["diff", "latest:smoke", "latest"]) == 0
    assert "identical point(s)" in capsys.readouterr().out

    assert main(runs_prefix + ["diff", "latest", "zzz"]) == 2
    assert "repro runs: error:" in capsys.readouterr().err


def test_corrupt_run_record_error_names_the_file(tmp_path, capsys):
    registry = tmp_path / "registry"
    assert main(["sweep", "--preset", "smoke", "--no-cache",
                 "--registry", str(registry)]) == 0
    (record,) = (registry / "runs").glob("*.json")
    record.write_text(record.read_text()[:200])
    capsys.readouterr()
    for argv in (["runs", "--registry", str(registry), "show", record.stem],
                 ["runs", "--registry", str(registry), "check", "latest"],
                 ["explain", "latest", "--registry", str(registry)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "corrupt run record" in err, argv
        assert str(record) in err, argv


#: A run record and index line exactly as ``repro bench`` registered
#: them before the command was removed.
_LEGACY_BENCH_RECORD = {
    "artifacts": {"trajectory_entry": "b.json"},
    "code_fingerprint": "abc",
    "config": {"repeats": 5},
    "created_utc": "2026-08-06T12:00:00Z",
    "env": {"code_fingerprint": "abc", "git_sha": "feedbeef"},
    "git_sha": "feedbeef",
    "kind": "bench",
    "metrics": {"elapsed_s": 3.2},
    "name": "bench",
    "points": [
        {
            "label": "engine.events_per_s",
            "summary": {
                "direction": "higher", "iqr": 10000.0, "median": 1000000.0,
                "p90": 1100000.0, "suite": "micro", "unit": "events/s",
            },
        }
    ],
    "run_id": "20260806T120000Z-bench-7d180aa0",
    "schema": 1,
}
_LEGACY_BENCH_INDEX_LINE = {
    "created_utc": "2026-08-06T12:00:00Z", "git_sha": "feedbeef",
    "kind": "bench", "name": "bench", "points": 1,
    "run_id": "20260806T120000Z-bench-7d180aa0", "schema": 1,
}


def test_registry_with_legacy_bench_record_still_works(tmp_path, capsys):
    import json

    registry = tmp_path / "registry"
    run_id = _LEGACY_BENCH_RECORD["run_id"]
    (registry / "runs").mkdir(parents=True)
    (registry / "runs" / f"{run_id}.json").write_text(
        json.dumps(_LEGACY_BENCH_RECORD, indent=1, sort_keys=True) + "\n"
    )
    (registry / "runs.jsonl").write_text(
        json.dumps(_LEGACY_BENCH_INDEX_LINE, sort_keys=True) + "\n"
    )

    assert main(["runs", "--registry", str(registry), "list"]) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith(run_id)]
    assert row.split()[1] == "bench"

    out_file = tmp_path / "report.html"
    assert main(["report", "--registry", str(registry),
                 "--output", str(out_file)]) == 0
    assert "1 run(s)" in capsys.readouterr().out
    assert run_id in out_file.read_text()

    assert main(["explain", "latest", "--registry", str(registry)]) == 2
    assert f"run {run_id} is a bench run" in capsys.readouterr().err


#: The top-level block that registry records written by the retired
#: multi-host sweep driver carry.
_LEGACY_FABRIC_BLOCK = {
    "fabric_dir": "/jobs/drill", "workers": 2, "workers_seen": ["w0", "w1"],
    "shards": 4, "steals": 3, "respawns": 2, "max_respawns": 2,
    "worker_deaths": 1,
    "shard_walls": {"s0000": 0.1, "s0001": 0.1, "s0002": 0.5, "s0003": 0.1},
    "attempts": [
        {"shard": "s0000", "worker": "w0", "t0": 0.0, "t1": 0.3,
         "outcome": "killed"},
        {"shard": "s0000", "worker": "w1", "t0": 0.5, "t1": 0.9,
         "outcome": "done"},
    ],
}


def test_registry_with_legacy_fabric_record_still_reads(tmp_path, capsys):
    import json

    from repro.obs.registry import RunRegistry
    from tests.obs.conftest import PAIRED_POINTS, build_run

    registry = RunRegistry(tmp_path / "registry")
    spec, result = build_run("drill", PAIRED_POINTS)
    record = registry.ingest_sweep(
        spec, result, created_utc="2026-08-06T10:00:00Z",
        extra={"fabric": _LEGACY_FABRIC_BLOCK},
    )
    runs_prefix = ["runs"] + _registry_args(tmp_path)

    assert main(runs_prefix + ["list"]) == 0
    captured = capsys.readouterr()
    assert record["run_id"] in captured.out
    assert "fabric" not in (captured.out + captured.err).lower()

    # the block stays in the record; nothing about it reaches stderr
    assert main(runs_prefix + ["show", "latest"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["fabric"] == _LEGACY_FABRIC_BLOCK
    assert captured.err == ""

    # no rule reads the block: steals, respawns and slow shards are silent
    assert main(runs_prefix + ["check", "latest", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == []
    assert captured.err == ""

    out_file = tmp_path / "report.html"
    assert main(["report"] + _registry_args(tmp_path)
                + ["--output", str(out_file)]) == 0
    captured = capsys.readouterr()
    html = out_file.read_text()
    assert record["run_id"] in html
    assert "fabric" not in (html + captured.out + captured.err).lower()


def test_runs_errors_are_clean(tmp_path, capsys):
    runs_prefix = ["runs"] + _registry_args(tmp_path)
    assert main(runs_prefix + ["show", "latest"]) == 2
    assert "repro runs: error:" in capsys.readouterr().err
    assert main(runs_prefix + ["check", "latest"]) == 2
    assert "repro runs: error:" in capsys.readouterr().err


def test_report_cli_writes_self_contained_html(tmp_path, capsys):
    assert main(["sweep", "--preset", "smoke", "--no-cache",
                 "--registry", str(tmp_path / "registry")]) == 0
    capsys.readouterr()
    out_file = tmp_path / "report.html"
    rc = main(["report", "--registry", str(tmp_path / "registry"),
               "--output", str(out_file)])
    assert rc == 0
    assert "report written to" in capsys.readouterr().out
    html = out_file.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html and "https://" not in html
    assert "smoke" in html


def test_inspect_empty_dir_is_a_clean_one_line_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["inspect", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro inspect: error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_watch_replay_asserts_completion(tmp_path, capsys):
    jsonl = tmp_path / "progress.jsonl"
    assert main(["sweep", "--preset", "smoke", "--no-cache", "--no-registry",
                 "--jsonl", str(jsonl)]) == 0
    capsys.readouterr()
    assert main(["watch", str(jsonl), "--replay"]) == 0
    assert "4/4 points" in capsys.readouterr().out

    # strip the sweep_done tail: --replay must now fail
    lines = jsonl.read_text().splitlines()
    truncated = [l for l in lines if '"sweep_done"' not in l]
    jsonl.write_text("\n".join(truncated) + "\n")
    assert main(["watch", str(jsonl), "--replay"]) == 1
    assert "no sweep_done" in capsys.readouterr().err


def test_watch_replay_incompatible_with_follow(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text("")
    assert main(["watch", str(path), "--replay", "--follow"]) == 2
    assert "incompatible" in capsys.readouterr().err
