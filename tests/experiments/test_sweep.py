"""Unit tests for the sweep engine: specs, cache, progress, execution."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import (
    CACHE_FORMAT,
    ResultCache,
    canonical_json,
    code_fingerprint,
    point_key,
)
from repro.experiments.progress import PROGRESS_SCHEMA, EventLog
from repro.experiments.sweep import (
    PARAM_DEFAULTS,
    ScenarioSummary,
    SweepSpec,
    _pool_blocks,
    build_scenario,
    normalize_params,
    run_point,
    run_sweep,
)
from repro.experiments.sweep_presets import smoke_spec

#: Cheap scenario base every test here sweeps around (sub-second runs).
TINY = {"app": "jacobi2d", "scale": 0.05, "iterations": 5, "cores": 4}


# ---------------------------------------------------------------------------
# parameter normalisation
# ---------------------------------------------------------------------------


class TestNormalizeParams:
    def test_defaults_are_filled_and_sorted(self):
        p = normalize_params({})
        assert set(p) == set(PARAM_DEFAULTS)
        assert list(p) == sorted(p)

    def test_explicit_defaults_hash_like_implicit(self):
        implicit = normalize_params({"app": "wave2d"})
        explicit = normalize_params({"app": "wave2d", "cores": 8, "epsilon": 0.05})
        assert point_key(implicit) == point_key(explicit)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            normalize_params({"grid": 64})

    def test_unknown_app_and_balancer_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            normalize_params({"app": "linpack"})
        with pytest.raises(ValueError, match="unknown balancer"):
            normalize_params({"balancer": "magic"})

    def test_none_balancer_aliases_to_none_string(self):
        assert normalize_params({"balancer": None})["balancer"] == "none"

    def test_auto_seed_is_deterministic_and_content_dependent(self):
        a = normalize_params({**TINY, "seed": "auto"})
        b = normalize_params({**TINY, "seed": "auto"})
        c = normalize_params({**TINY, "cores": 8, "seed": "auto"})
        assert a["seed"] == b["seed"]
        assert a["seed"] != c["seed"]


# ---------------------------------------------------------------------------
# spec expansion
# ---------------------------------------------------------------------------


class TestSweepSpec:
    def test_cartesian_expansion_order(self):
        spec = SweepSpec(
            name="s",
            base=TINY,
            axes={"cores": [4, 8], "balancer": ["none", "refine-vm"]},
        )
        labels = [p.label for p in spec.expand()]
        assert labels == [
            "cores=4,balancer=none",
            "cores=4,balancer=refine-vm",
            "cores=8,balancer=none",
            "cores=8,balancer=refine-vm",
        ]

    def test_explicit_points_and_labels(self):
        spec = SweepSpec(
            name="s",
            base=TINY,
            points=({"label": "a", "cores": 4}, {"cores": 8}),
        )
        points = spec.expand()
        assert [p.label for p in points] == ["a", "cores=8"]
        assert points[0].params["cores"] == 4

    def test_bare_base_is_one_point(self):
        assert len(SweepSpec(name="s", base=TINY).expand()) == 1

    def test_duplicate_labels_are_disambiguated(self):
        spec = SweepSpec(
            name="s", base=TINY, points=({"label": "x"}, {"label": "x"})
        )
        assert [p.label for p in spec.expand()] == ["x", "x#1"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepSpec(name="s", axes={"gridsize": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            SweepSpec(name="s", axes={"cores": []})

    def test_json_round_trip(self, tmp_path):
        spec = SweepSpec(
            name="rt", base=TINY, axes={"cores": [4, 8]}, points=({"seed": 1},)
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = SweepSpec.from_file(path)
        assert loaded == spec

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError, match="needs a 'name'"):
            SweepSpec.from_dict({})
        with pytest.raises(ValueError, match="unknown sweep spec key"):
            SweepSpec.from_dict({"name": "s", "grid": {}})


# ---------------------------------------------------------------------------
# scenario building
# ---------------------------------------------------------------------------


class TestBuildScenario:
    def test_balancer_selection(self):
        from repro.core import GreedyLB, RefineLB, RefineVMInterferenceLB

        assert build_scenario({**TINY}).balancer is None
        sc = build_scenario({**TINY, "balancer": "refine-vm", "epsilon": 0.1})
        assert isinstance(sc.balancer, RefineVMInterferenceLB)
        assert sc.balancer.epsilon == 0.1
        assert isinstance(
            build_scenario({**TINY, "balancer": "refine"}).balancer, RefineLB
        )
        aware = build_scenario({**TINY, "balancer": "greedy-aware"}).balancer
        assert isinstance(aware, GreedyLB) and aware.aware

    def test_background_spec_sized_to_outlast_app(self):
        sc = build_scenario({**TINY, "bg": True})
        assert sc.bg is not None
        assert sc.bg.core_ids == (0, 1)
        assert sc.bg.iterations >= 1

    def test_fresh_objects_per_call(self):
        params = {**TINY, "balancer": "refine-vm"}
        a, b = build_scenario(params), build_scenario(params)
        assert a.balancer is not b.balancer
        assert a.app is not b.app


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        params = normalize_params(TINY)
        key = point_key(params)
        assert cache.get(key) is None
        summary = run_point(params)
        cache.put(key, params, summary.to_dict())
        assert len(cache) == 1
        assert ScenarioSummary.from_dict(cache.get(key)) == summary
        # payload files sit beside the entry and add no point
        extras = {"ledger": {"a": 1}, "lineage": [2]}
        cache.put(key, params, summary.to_dict(), extras=extras)
        assert len(cache) == 1
        assert sorted(p.name for p in tmp_path.rglob("*.json")) == [
            f"{key}.json",
            f"{key}.ledger.json",
            f"{key}.lineage.json",
        ]
        assert cache.get_extras(key) == extras
        assert cache.get_extras(key, ("lineage", "audit")) == {"lineage": [2]}
        assert ScenarioSummary.from_dict(cache.get(key)) == summary

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(normalize_params(TINY))
        cache.put(key, {}, {"bogus": 1})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_wrong_key_or_format_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(normalize_params(TINY))
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"format": CACHE_FORMAT + 1, "key": key, "summary": {}})
        )
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {}, {"x": 1})
        cache.put("cd" + "0" * 62, {}, {"x": 2}, extras={"audit": {}, "ledger": {}})
        assert len(cache) == 2
        assert cache.clear() == 2  # points, not files
        assert len(cache) == 0
        assert list(tmp_path.rglob("*.json")) == []

    def test_put_leaves_other_payload_files_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {}, {"x": 1}, extras={"audit": {"a": 1}, "ledger": {"l": 1}})
        audit = cache._path(key, "audit")
        inode = audit.stat().st_ino
        cache.put(key, {}, {"x": 1}, extras={"ledger": {"l": 2}})
        assert audit.stat().st_ino == inode  # never rewritten
        assert cache.get_extras(key) == {"audit": {"a": 1}, "ledger": {"l": 2}}

    def test_damaged_payload_is_a_miss_for_its_probe_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, other = "ab" + "0" * 62, "ab" + "1" * 62
        cache.put(key, {}, {"x": 1}, extras={"audit": [1], "ledger": [2], "lineage": [3]})
        cache.put(other, {}, {"x": 2}, extras={"audit": [4]})
        cache._path(key, "lineage").write_text('{"format": 2, "key"')  # truncated
        cache._path(key, "audit").write_bytes(cache._path(other, "audit").read_bytes())
        assert cache.get(key) == {"x": 1}
        assert cache.get_extras(key) == {"ledger": [2]}
        assert cache.get_extras(key, ("audit", "lineage")) == {}

    def test_key_depends_on_params_and_code(self):
        a = point_key(normalize_params(TINY))
        b = point_key(normalize_params({**TINY, "cores": 8}))
        assert a != b
        assert point_key(normalize_params(TINY), fingerprint="deadbeef") != a

    def test_code_fingerprint_is_stable_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        int(fp, 16)
        assert len(fp) == 64


# ---------------------------------------------------------------------------
# execution + metrics + events
# ---------------------------------------------------------------------------


def tiny_spec(**base_overrides):
    return SweepSpec(
        name="tiny",
        base={**TINY, **base_overrides},
        axes={"cores": [2, 4], "balancer": ["none", "refine-vm"]},
    )


class TestRunSweep:
    def test_cold_run_executes_everything(self, tmp_path):
        res = run_sweep(tiny_spec(), cache=ResultCache(tmp_path))
        assert res.metrics.points == 4
        assert res.metrics.executed == 4
        assert res.metrics.cache_hits == 0
        assert res.metrics.hit_rate == 0.0
        assert all(not r.cached and r.wall_s > 0 for r in res.results)

    def test_second_run_is_pure_cache_hit_and_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep(tiny_spec(), cache=cache)
        warm = run_sweep(tiny_spec(), cache=cache)
        assert warm.metrics.hit_rate == 1.0
        assert warm.metrics.executed == 0
        assert warm.summaries() == cold.summaries()
        # a warm run must be drastically cheaper than the cold one
        assert warm.metrics.elapsed_s < cold.metrics.elapsed_s * 0.5

    def test_no_cache_always_executes(self):
        res = run_sweep(tiny_spec())
        again = run_sweep(tiny_spec())
        assert res.metrics.executed == again.metrics.executed == 4
        assert res.summaries() == again.summaries()

    def test_results_keep_spec_order(self, tmp_path):
        spec = tiny_spec()
        res = run_sweep(spec, cache=ResultCache(tmp_path))
        assert [r.label for r in res.results] == [p.label for p in spec.expand()]
        assert [r.index for r in res.results] == [0, 1, 2, 3]

    def test_event_stream_structure(self):
        log = EventLog()
        run_sweep(tiny_spec(), log=log)
        assert all(e["schema"] == PROGRESS_SCHEMA for e in log.events)
        assert [e["event"] for e in log.events[:1]] == ["sweep_start"]
        assert log.events[-1]["event"] == "sweep_done"
        assert len(log.of_type("point_start")) == 4
        done = log.of_type("point_done")
        assert len(done) == 4
        assert all(set(d) >= {"label", "key", "cached", "wall_s", "worker"} for d in done)
        assert log.events[-1]["points"] == 4

    def test_jsonl_mirror_is_parseable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            run_sweep(tiny_spec(), log=EventLog(stream=fh))
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert all(e["schema"] == 1 for e in events)
        assert events[0]["event"] == "sweep_start"
        assert events[-1]["event"] == "sweep_done"
        assert events[-1]["hit_rate"] == 0.0

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(tiny_spec(), workers=0)

    def test_getitem_and_missing_label(self):
        res = run_sweep(SweepSpec(name="one", base=TINY))
        assert res["point0"].app_time > 0
        with pytest.raises(KeyError):
            res["nope"]

    def test_text_report_mentions_hits_and_utilization(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(tiny_spec(), cache=cache)
        warm = run_sweep(tiny_spec(), cache=cache)
        text = warm.text()
        assert "cache_hits=4 (100%)" in text
        assert "hit" in text

    def test_zero_miss_parallel_sweep_never_builds_a_pool(
        self, tmp_path, monkeypatch
    ):
        """A fully-cached sweep must not pay process-spawn cost."""
        cache = ResultCache(tmp_path)
        cold = run_sweep(tiny_spec(), cache=cache)

        def explode(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("zero-miss sweep built a process pool")

        monkeypatch.setattr(
            "repro.experiments.sweep.ProcessPoolExecutor", explode
        )
        warm = run_sweep(tiny_spec(), cache=cache, workers=4)
        assert warm.metrics.cache_hits == 4
        assert warm.summaries() == cold.summaries()


# unique, arbitrary-order items: the split must not rely on the
# 0..n-1 indices a sweep expansion yields
_block_items = st.lists(
    st.integers(min_value=0, max_value=10_000), unique=True, max_size=200
)
_pool_widths = st.integers(min_value=1, max_value=16)


class TestPoolBlocks:
    """The pool's partition of a sweep's misses into contiguous blocks."""

    @given(items=_block_items, workers=_pool_widths)
    @settings(max_examples=200)
    def test_every_point_exactly_once(self, items, workers):
        """Concatenating the blocks reproduces the input sequence exactly."""
        blocks = _pool_blocks(items, workers)
        assert [i for block in blocks for i in block] == items

    @given(items=_block_items, workers=_pool_widths)
    @settings(max_examples=200)
    def test_block_sizes_balanced_within_one(self, items, workers):
        blocks = _pool_blocks(items, workers)
        assert len(blocks) == min(len(items), 4 * workers)
        if blocks:
            sizes = [len(block) for block in blocks]
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1


class TestProbeCacheExtras:
    """Audit, ledger and lineage sweeps share each point's cache entry and
    keep one payload file per probe beside it."""

    def test_probe_sweeps_keep_each_others_extras(self, tmp_path):
        spec = tiny_spec(bg=True)
        cache = ResultCache(tmp_path / "cache")
        probes = (
            {"ledger": True},
            {"lineage": True},
            {"audit_dir": tmp_path / "audit"},
        )
        first = [run_sweep(spec, cache=cache, **kw) for kw in probes]
        # each probe finds the summaries but not its own payload yet
        assert [r.metrics.cache_hits for r in first] == [0, 0, 0]
        again = [run_sweep(spec, cache=cache, **kw) for kw in probes]
        assert [r.metrics.cache_hits for r in again] == [4, 4, 4]
        for key in {r.key for r in again[0].results}:
            assert set(cache.get_extras(key)) == {"audit", "ledger", "lineage"}
        # hits serve exactly the payloads the executions produced
        for cold, warm in zip(first, again):
            assert warm.summaries() == cold.summaries()
            for c, w in zip(cold.results, warm.results):
                for field in ("audit", "ledger", "lineage"):
                    assert canonical_json(getattr(w, field)) == canonical_json(
                        getattr(c, field)
                    )

    def test_damaged_payload_re_executes_only_its_probe(self, tmp_path):
        spec = tiny_spec(bg=True)
        cache = ResultCache(tmp_path / "cache")
        probes = {
            "ledger": {"ledger": True},
            "lineage": {"lineage": True},
            "audit": {"audit_dir": tmp_path / "cold"},
        }
        cold = {name: run_sweep(spec, cache=cache, **kw) for name, kw in probes.items()}
        files = sorted((tmp_path / "cache").rglob("*.json"))
        assert len(files) == 4 * 4  # an entry and three payloads per point
        snapshot = {f: f.read_bytes() for f in files}
        inodes = {f: f.stat().st_ino for f in files}
        k0, k1 = cold["ledger"].results[0].key, cold["ledger"].results[1].key
        truncated = cache._path(k0, "lineage")
        truncated.write_bytes(snapshot[truncated][: len(snapshot[truncated]) // 2])
        foreign = cache._path(k1, "audit")
        foreign.write_bytes(snapshot[cache._path(k0, "audit")])  # carries k0

        probes["audit"] = {"audit_dir": tmp_path / "warm"}
        warm = {name: run_sweep(spec, cache=cache, **kw) for name, kw in probes.items()}
        executed = {
            name: [r.index for r in res.results if not r.cached]
            for name, res in warm.items()
        }
        assert executed == {"ledger": [], "lineage": [0], "audit": [1]}
        for name in probes:
            assert warm[name].summaries() == cold[name].summaries()
            assert [canonical_json(getattr(r, name)) for r in warm[name].results] == [
                canonical_json(getattr(r, name)) for r in cold[name].results
            ]
        for path in (tmp_path / "cold").glob("*.jsonl"):
            assert (tmp_path / "warm" / path.name).read_bytes() == path.read_bytes()
        # the damaged payloads are back, byte for byte, and only they and
        # the two re-executed points' entries were rewritten
        assert sorted((tmp_path / "cache").rglob("*.json")) == files
        assert {f: f.read_bytes() for f in files} == snapshot
        rewritten = {cache._path(k0), cache._path(k1), truncated, foreign}
        for f in files:
            if f not in rewritten:
                assert f.stat().st_ino == inodes[f], f.name

    def test_ledger_hit_never_parses_other_payloads(self, tmp_path, monkeypatch):
        spec = tiny_spec(bg=True)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(
            spec, cache=cache, ledger=True, lineage=True, audit_dir=tmp_path / "audit"
        )
        for r in cold.results:
            for probe in ("lineage", "audit"):
                cache._path(r.key, probe).write_text("{not json")
        parsed = []
        load = ResultCache._load

        def recording_load(self, path, key):
            parsed.append(path.name)
            return load(self, path, key)

        monkeypatch.setattr(ResultCache, "_load", recording_load)
        warm = run_sweep(spec, cache=cache, ledger=True)
        assert warm.metrics.hit_rate == 1.0
        # each hit parses its entry once and its ledger payload once
        assert sorted(parsed) == sorted(
            f"{r.key}{suffix}.json" for r in cold.results for suffix in ("", ".ledger")
        )
        assert warm.summaries() == cold.summaries()
        assert [r.ledger for r in warm.results] == [r.ledger for r in cold.results]


@pytest.fixture(scope="module")
def single_probe_smoke(tmp_path_factory):
    """The smoke sweep run plain and once per probe, each executed cold;
    returns the sweeps and the audit sweep's directory."""
    audit_dir = tmp_path_factory.mktemp("single") / "audit"
    sweeps = {
        "plain": run_sweep(smoke_spec()),
        "ledger": run_sweep(smoke_spec(), ledger=True),
        "lineage": run_sweep(smoke_spec(), lineage=True),
        "audit": run_sweep(smoke_spec(), audit_dir=audit_dir),
    }
    return sweeps, audit_dir


class TestCombinedProbes:
    """Audit, ledger and lineage attached to one run of each point."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_combined_sweep_matches_single_probe_sweeps(
        self, workers, single_probe_smoke, tmp_path
    ):
        single, single_audit = single_probe_smoke
        cache = ResultCache(tmp_path / "cache")
        combined = run_sweep(
            smoke_spec(), workers=workers, cache=cache,
            ledger=True, lineage=True, audit_dir=tmp_path / "audit",
        )
        assert combined.metrics.executed == len(combined.results)
        assert combined.summaries() == single["plain"].summaries()
        for probe in ("ledger", "lineage", "audit"):
            assert [getattr(r, probe) for r in combined.results] == [
                getattr(r, probe) for r in single[probe].results
            ]
        names = sorted(f.name for f in single_audit.glob("*.jsonl"))
        assert len(names) == len(combined.results)
        assert sorted(f.name for f in (tmp_path / "audit").glob("*.jsonl")) == names
        for name in names:
            assert (tmp_path / "audit" / name).read_bytes() == (
                single_audit / name
            ).read_bytes()
        # the combined run left every probe's payload in one entry per point
        for probe in ({"ledger": True}, {"lineage": True},
                      {"audit_dir": tmp_path / "warm-audit"}):
            assert run_sweep(smoke_spec(), cache=cache, **probe).metrics.hit_rate == 1.0

    def test_serial_and_parallel_audit_dirs_are_byte_identical(
        self, single_probe_smoke, tmp_path
    ):
        """Audit JSONL and Chrome traces hold simulated time only, so a
        parallel sweep writes the serial sweep's files byte for byte."""
        _, serial = single_probe_smoke  # workers=1, cache=None
        parallel = tmp_path / "audit"
        run_sweep(smoke_spec(), workers=2, cache=None, audit_dir=parallel)
        names = sorted(f.name for f in serial.iterdir())
        assert sorted(f.name for f in parallel.iterdir()) == names
        assert sum(name.endswith(".trace.json") for name in names) == len(
            smoke_spec().expand()
        )
        for name in names:
            assert (parallel / name).read_bytes() == (serial / name).read_bytes()

    def test_fast_and_event_backends_write_identical_audit_dirs(self, tmp_path):
        """The fast path records the engine's per-task trace, so an
        audited sweep writes the same JSONL and Chrome traces on both."""
        dirs = {}
        for backend in ("fast", "events"):
            dirs[backend] = tmp_path / backend
            run_sweep(tiny_spec(), backend=backend, audit_dir=dirs[backend])
        names = sorted(f.name for f in dirs["events"].iterdir())
        assert sorted(f.name for f in dirs["fast"].iterdir()) == names
        for suffix in (".jsonl", ".trace.json"):
            assert sum(name.endswith(suffix) for name in names) == len(
                tiny_spec().expand()
            )
        for name in names:
            assert (dirs["fast"] / name).read_bytes() == (
                dirs["events"] / name
            ).read_bytes()


class TestSummaryRoundTrip:
    def test_json_round_trip_is_exact(self):
        summary = run_point(normalize_params(TINY))
        blob = json.dumps(summary.to_dict())
        assert ScenarioSummary.from_dict(json.loads(blob)) == summary

    def test_bg_time_present_only_with_background(self):
        assert run_point({**TINY}).bg_time is None
        assert run_point({**TINY, "bg": True}).bg_time > 0
