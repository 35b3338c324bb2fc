"""The run registry: ingest, list, resolve, reconcile, diff."""

import json

import pytest

from repro.obs.registry import RUN_SCHEMA, RunRegistry, default_registry_dir, diff_runs


@pytest.fixture(autouse=True)
def _pinned_sha(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbeef")


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "registry")


def test_default_registry_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "r"))
    assert default_registry_dir() == tmp_path / "r"
    monkeypatch.delenv("REPRO_REGISTRY_DIR")
    assert default_registry_dir().name == "registry"


def test_ingest_sweep_and_list(registry, fabricate):
    spec, result = fabricate(
        "smoke", [{"label": "a", "seed": 7}, {"label": "b", "seed": 8}]
    )
    record = registry.ingest_sweep(
        spec, result, created_utc="2026-08-06T10:00:00Z",
        artifacts={"audit_dir": "audits/x"},
    )
    assert record["schema"] == RUN_SCHEMA
    assert record["run_id"].startswith("20260806T100000Z-sweep-")
    assert record["git_sha"] == "feedbeef"
    env = record["env"]
    assert set(env) == {
        "repro_version", "python", "implementation", "platform", "machine",
        "cpu_count", "git_sha", "code_fingerprint",
    }
    for key, value in env.items():
        assert value, key
    assert env["git_sha"] == "feedbeef"
    assert len(env["code_fingerprint"]) == 16
    assert record["spec"]["name"] == "smoke"
    assert record["metrics"]["points"] == 2
    assert [p["seed"] for p in record["points"]] == [7, 8]
    assert record["points"][0]["summary"]["app_time"] == 1.0
    assert record["artifacts"] == {"audit_dir": "audits/x"}

    listed = registry.list()
    assert len(listed) == len(registry) == 1
    assert listed[0]["run_id"] == record["run_id"]
    assert listed[0]["kind"] == "sweep"
    assert listed[0]["points"] == 2


def test_run_id_collisions_get_suffixes(registry, fabricate):
    spec, result = fabricate("smoke", [{"label": "a"}])
    stamp = "2026-08-06T10:00:00Z"
    first = registry.ingest_sweep(spec, result, created_utc=stamp)
    second = registry.ingest_sweep(spec, result, created_utc=stamp)
    assert second["run_id"] == f"{first['run_id']}-1"
    assert len(registry.list()) == 2


def test_load_and_resolve(registry, fabricate):
    spec, result = fabricate("smoke", [{"label": "a"}])
    r1 = registry.ingest_sweep(spec, result, created_utc="2026-08-06T10:00:00Z")
    spec2, result2 = fabricate("abl", [{"label": "a"}])
    r2 = registry.ingest_sweep(spec2, result2, created_utc="2026-08-06T11:00:00Z")

    assert registry.load(r1["run_id"])["run_id"] == r1["run_id"]
    assert registry.resolve("latest") == r2["run_id"]
    assert registry.resolve("latest:smoke") == r1["run_id"]
    assert registry.resolve(r1["run_id"][:20]) == r1["run_id"]
    assert registry.load("latest")["name"] == "abl"

    with pytest.raises(ValueError, match="ambiguous"):
        registry.resolve("2026")
    with pytest.raises(ValueError, match="no run matching"):
        registry.resolve("zzz")
    with pytest.raises(ValueError, match="no runs named"):
        registry.resolve("latest:nope")


def test_resolve_on_empty_registry(registry):
    with pytest.raises(ValueError, match="no runs"):
        registry.resolve("latest")


def test_index_reconciles_missing_lines(registry, fabricate):
    spec, result = fabricate("smoke", [{"label": "a"}])
    record = registry.ingest_sweep(spec, result, created_utc="2026-08-06T10:00:00Z")
    registry.index_path.unlink()  # e.g. writer died between record and index
    listed = registry.list()
    assert [r["run_id"] for r in listed] == [record["run_id"]]
    assert listed[0]["points"] == 1


def test_truncated_trailing_index_line_is_skipped(registry, fabricate):
    spec, result = fabricate("smoke", [{"label": "a"}])
    record = registry.ingest_sweep(spec, result, created_utc="2026-08-06T10:00:00Z")
    with open(registry.index_path, "a") as fh:
        fh.write('{"run_id": "half-writ')  # killed mid-line
    assert [r["run_id"] for r in registry.list()] == [record["run_id"]]


def test_corrupt_middle_index_line_raises(registry, fabricate):
    for hour in (10, 11):
        spec, result = fabricate("smoke", [{"label": "a"}])
        registry.ingest_sweep(spec, result, created_utc=f"2026-08-06T{hour}:00:00Z")
    lines = registry.index_path.read_text().splitlines()
    registry.index_path.write_text("\n".join([lines[0], "{broken", lines[1]]) + "\n")
    with pytest.raises(ValueError, match="not valid JSON"):
        registry.list()


def test_load_rejects_wrong_schema(registry, tmp_path):
    registry.runs_dir.mkdir(parents=True)
    bad = registry.runs_dir / "x.json"
    bad.write_text(json.dumps({"schema": 99, "run_id": "x"}))
    with pytest.raises(ValueError, match="schema"):
        registry.load("x")


def test_diff_runs(registry, fabricate):
    spec_a, result_a = fabricate(
        "smoke",
        [
            {"label": "a", "app_time": 1.0},
            {"label": "b", "app_time": 2.0},
            {"label": "gone", "app_time": 3.0},
        ],
    )
    spec_b, result_b = fabricate(
        "smoke",
        [
            {"label": "a", "app_time": 1.0},
            {"label": "b", "app_time": 3.0},
            {"label": "new", "app_time": 4.0},
        ],
    )
    ra = registry.ingest_sweep(spec_a, result_a, created_utc="2026-08-06T10:00:00Z")
    rb = registry.ingest_sweep(spec_b, result_b, created_utc="2026-08-06T11:00:00Z")
    diff = diff_runs(ra, rb)
    assert diff["a"] == ra["run_id"] and diff["b"] == rb["run_id"]
    assert diff["only_a"] == ["gone"] and diff["only_b"] == ["new"]
    assert diff["identical"] == ["a"]
    va, vb, rel = diff["changed"]["b"]["app_time"]
    assert (va, vb) == (2.0, 3.0)
    assert rel == pytest.approx(0.5)
    # bg_time tracks app_time in the fixture, so it differs too
    assert "bg_time" in diff["changed"]["b"]
