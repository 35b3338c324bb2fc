"""The imbalance observatory: metrics, lineage graph, counterfactuals.

Three layers under test: the exact imbalance statistics
(:func:`imbalance_metrics` — λ, CoV, Gini), the
:class:`LineageRecorder` hook contract and its derived residency
graph / counterfactual bounds (hand-built sample schedules with known
answers), and the carriage through sweeps, caches, the registry and
the report. Backend parity of the payloads lives in
``tests/experiments/test_backend_parity.py``.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import ResultCache
from repro.experiments.runner import run_scenario
from repro.experiments.sweep import (
    SweepSpec,
    build_scenario,
    run_point,
    run_point_lineaged,
    run_sweep,
)
from repro.obs.lineage import (
    LINEAGE_SCHEMA,
    LineageError,
    LineageRecorder,
    format_lineage_text,
    imbalance_metrics,
    lineage_dot,
)
from repro.obs.registry import RunRegistry
from repro.obs.report import _migration_flow_svg, build_report, render_report
from repro.telemetry import AuditTrail

#: Cheap scenario base the integration tests sweep around.
TINY = {"app": "jacobi2d", "scale": 0.05, "iterations": 5, "cores": 4}


# ---------------------------------------------------------------------------
# imbalance metrics: exact invariants
# ---------------------------------------------------------------------------


class TestImbalanceMetrics:
    def test_empty_and_negative_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            imbalance_metrics([])
        with pytest.raises(ValueError, match="non-negative"):
            imbalance_metrics([1.0, -0.5])

    def test_all_zero_is_perfectly_balanced(self):
        m = imbalance_metrics([0, 0, 0])
        assert m["lambda"] == 1.0 and m["cov"] == 0.0 and m["gini"] == 0.0

    def test_known_two_core_example(self):
        # loads (3, 1): mean 2, max 3 -> λ 1.5; var 1 -> cov 0.5;
        # gini = ((2*0-1)*1 + (2*1-1)*3) / (2*4) = 0.25
        m = imbalance_metrics([3, 1])
        assert m["lambda"] == 1.5
        assert m["cov"] == 0.5
        assert m["gini"] == 0.25
        assert m["max_s"] == 3.0 and m["mean_s"] == 2.0 and m["total_s"] == 4.0

    def test_balanced_vector_is_exactly_flat(self):
        m = imbalance_metrics([0.7, 0.7, 0.7, 0.7])
        assert m["lambda"] == 1.0 and m["cov"] == 0.0 and m["gini"] == 0.0


# dyadic rationals: exact as floats AND as Fractions, so the invariants
# below are theorems, not approximations
_dyadic = st.integers(min_value=0, max_value=1 << 12).map(
    lambda n: Fraction(n, 16)
)
_load_vectors = st.lists(_dyadic, min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(loads=_load_vectors)
def test_metric_invariants_hold_exactly(loads):
    m = imbalance_metrics(loads)
    n = len(loads)
    assert m["lambda"] >= 1.0
    assert 0.0 <= m["gini"] < 1.0
    assert m["gini"] <= (n - 1) / n if n > 1 else m["gini"] == 0.0
    assert m["cov"] >= 0.0
    balanced = len(set(loads)) == 1
    # CoV = 0 iff perfectly balanced — and λ = 1 exactly then, too
    assert (m["cov"] == 0.0) == balanced
    if balanced:
        assert m["lambda"] == 1.0 and m["gini"] == 0.0


@settings(max_examples=100, deadline=None)
@given(loads=_load_vectors, seed=st.integers(min_value=0, max_value=2**16))
def test_metrics_are_permutation_invariant(loads, seed):
    shuffled = list(loads)
    random.Random(seed).shuffle(shuffled)
    assert imbalance_metrics(loads) == imbalance_metrics(shuffled)


# ---------------------------------------------------------------------------
# recorder mechanics: the hook contract
# ---------------------------------------------------------------------------

X = ("c", 0)
Y = ("c", 1)


def _two_chare_recorder():
    """2 cores, 2 chares both starting on core 0, 1 cpu-s per task.

    Iterations 0-1 run on the initial placement; an LB step before
    iteration 2 moves Y to core 1; iterations 2-3 run balanced.
    """
    rec = LineageRecorder(job="app", core_ids=(0, 1))
    rec.record_placement({X: 0, Y: 0})
    for i in range(4):
        rec.mark_iteration(i, float(i))
    rec.record_sample(X, 0, 0, 1.0)
    rec.record_sample(Y, 0, 0, 1.0)
    rec.record_sample(X, 1, 0, 1.0)
    rec.record_sample(Y, 1, 0, 1.0)
    rec.record_lb_step(time=2.0, iteration=2, migrations=[(Y, 0, 1)])
    rec.record_sample(X, 2, 0, 1.0)
    rec.record_sample(Y, 2, 1, 1.0)
    rec.record_sample(X, 3, 0, 1.0)
    rec.record_sample(Y, 3, 1, 1.0)
    return rec


class TestRecorderContract:
    def test_duplicate_core_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            LineageRecorder(core_ids=(0, 0, 1))

    def test_placement_only_once(self):
        rec = LineageRecorder(core_ids=(0,))
        rec.record_placement({X: 0})
        with pytest.raises(LineageError, match="already recorded"):
            rec.record_placement({X: 0})

    def test_placement_on_foreign_core_rejected(self):
        rec = LineageRecorder(core_ids=(0, 1))
        with pytest.raises(LineageError, match="not one of the"):
            rec.record_placement({X: 7})

    def test_duplicate_sample_rejected(self):
        rec = LineageRecorder(core_ids=(0,))
        rec.record_sample(X, 0, 0, 1.0)
        with pytest.raises(LineageError, match="duplicate sample"):
            rec.record_sample(X, 0, 0, 2.0)

    def test_negative_sample_rejected(self):
        rec = LineageRecorder(core_ids=(0,))
        with pytest.raises(LineageError, match="negative CPU"):
            rec.record_sample(X, 0, 0, -1e-9)

    def test_iteration_marks_must_be_dense_and_monotone(self):
        rec = LineageRecorder(core_ids=(0,))
        rec.mark_iteration(0, 0.0)
        with pytest.raises(LineageError, match="out of order"):
            rec.mark_iteration(2, 1.0)
        with pytest.raises(LineageError, match="non-decreasing"):
            rec.mark_iteration(1, -1.0)

    def test_lb_steps_must_advance(self):
        rec = LineageRecorder(core_ids=(0, 1))
        rec.record_lb_step(time=1.0, iteration=1, migrations=[])
        with pytest.raises(LineageError, match="ordered in time"):
            rec.record_lb_step(time=2.0, iteration=1, migrations=[])
        with pytest.raises(LineageError, match="ordered in time"):
            rec.record_lb_step(time=0.5, iteration=3, migrations=[])

    def test_close_is_final(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        assert rec.closed
        with pytest.raises(LineageError, match="already closed"):
            rec.close(5.0)

    def test_payload_requires_close(self):
        with pytest.raises(LineageError, match="still open"):
            _two_chare_recorder().payload()

    def test_hooks_after_close_are_silent_noops(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        before = rec.payload()
        rec.record_sample(X, 4, 0, 1.0)
        rec.mark_iteration(4, 9.0)
        rec.record_lb_step(time=9.0, iteration=4, migrations=[])
        assert rec.payload() == before

    def test_migration_source_must_match_residency(self):
        rec = _two_chare_recorder()
        rec.record_lb_step(time=4.0, iteration=4, migrations=[(Y, 0, 1)])
        rec.close(4.0)
        with pytest.raises(LineageError, match="resides on core"):
            rec.payload()

    def test_migration_of_unplaced_chare_rejected(self):
        rec = LineageRecorder(core_ids=(0, 1))
        rec.record_placement({X: 0})
        rec.mark_iteration(0, 0.0)
        rec.record_sample(X, 0, 0, 1.0)
        rec.record_lb_step(time=1.0, iteration=1, migrations=[(("c", 9), 0, 1)])
        rec.close(1.0)
        with pytest.raises(LineageError, match="unplaced chare"):
            rec.payload()

    def test_missing_sample_is_a_broken_graph(self):
        rec = LineageRecorder(core_ids=(0, 1))
        rec.record_placement({X: 0, Y: 1})
        rec.mark_iteration(0, 0.0)
        rec.record_sample(X, 0, 0, 1.0)  # Y never sampled
        rec.close(1.0)
        with pytest.raises(LineageError, match="does not match the placed"):
            rec.payload()

    def test_sample_on_wrong_core_is_a_broken_graph(self):
        rec = LineageRecorder(core_ids=(0, 1))
        rec.record_placement({X: 0})
        rec.mark_iteration(0, 0.0)
        rec.record_sample(X, 0, 1, 1.0)  # placed on 0, sampled on 1
        rec.close(1.0)
        with pytest.raises(LineageError, match="resides on core"):
            rec.payload()


# ---------------------------------------------------------------------------
# residencies + counterfactual bounds on a known schedule
# ---------------------------------------------------------------------------


class TestHandBuiltCounterfactuals:
    def test_residencies_partition_the_lifetime(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        res = rec.payload()["residencies"]
        assert res["c[0]"] == [
            {"core": 0, "from_iteration": 0, "to_iteration": 4, "lb_step": None}
        ]
        assert res["c[1]"] == [
            {"core": 0, "from_iteration": 0, "to_iteration": 2, "lb_step": None},
            {"core": 1, "from_iteration": 2, "to_iteration": 4, "lb_step": 0},
        ]

    def test_per_iteration_metrics(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        rows = rec.payload()["per_iteration"]
        # iterations 0-1: both chares on core 0 -> λ = 2/1 = 2
        assert rows[0]["lambda"] == 2.0
        assert rows[0]["loads"] == {"0": 2.0, "1": 0.0}
        assert rows[0]["shares"] == {"0": 1.0, "1": 0.0}
        # iterations 2-3: balanced
        assert rows[3]["lambda"] == 1.0
        assert rows[3]["loads"] == {"0": 1.0, "1": 1.0}

    def test_perfect_step_recovers_everything(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        (step,) = rec.payload()["steps"]
        # interval [2, 4): observed max 2 (1+1 per core); no-LB replay
        # puts all 4 cpu-s back on core 0; oracle = 4/2 = 2
        assert step["iterations"] == [2, 4]
        assert step["observed_max_s"] == 2.0
        assert step["nolb_max_s"] == 4.0
        assert step["oracle_max_s"] == 2.0
        assert step["recovered_s"] == 2.0 and step["recoverable_s"] == 2.0
        assert step["efficiency"] == 1.0
        assert step["lambda_observed"] == 1.0 and step["lambda_nolb"] == 2.0
        assert step["sane"]

    def test_run_block_totals_and_hotspot(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        run = rec.payload()["run"]
        assert run["lb_steps"] == 1 and run["migrations"] == 1
        assert run["efficiency"] == 1.0 and run["sane"]
        hot = run["residual_hotspot"]
        # closing interval is balanced: tie breaks to the lowest core
        assert hot["core"] == 0 and hot["share"] == 0.5
        assert hot["chares"] == [{"chare": "c[0]", "cpu_s": 2.0}]

    def test_interference_is_pinned_to_its_core(self):
        # same app schedule, but core 1 suffers 3 cpu-s of interference
        # after the step: the replay must charge it in BOTH variants,
        # turning a helpful-looking step into a genuinely insane one
        rec = LineageRecorder(job="app", core_ids=(0, 1))
        rec.record_placement({X: 0, Y: 0})
        for i in range(4):
            rec.mark_iteration(i, float(i))
        for i in range(2):
            rec.record_sample(X, i, 0, 1.0)
            rec.record_sample(Y, i, 0, 1.0)
        rec.record_lb_step(
            time=2.0, iteration=2, migrations=[(Y, 0, 1)],
            bg_cpu={0: 0.0, 1: 0.0},
        )
        for i in range(2, 4):
            rec.record_sample(X, i, 0, 1.0)
            rec.record_sample(Y, i, 1, 1.0)
        rec.close(4.0, bg_cpu={0: 0.0, 1: 3.0})
        (step,) = rec.payload()["steps"]
        assert step["interference_s"] == 3.0
        # observed: core 1 carries 1+1 app + 3 stolen = 5; no-LB: core 0
        # carries all 4 app, core 1 keeps its 3 stolen -> max 4
        assert step["observed_max_s"] == 5.0
        assert step["nolb_max_s"] == 4.0
        assert step["oracle_max_s"] == 3.5
        assert not step["sane"]  # the step made things worse
        assert step["oracle_max_s"] <= step["observed_max_s"]

    def test_noop_step_has_nothing_to_recover_when_balanced(self):
        rec = LineageRecorder(core_ids=(0, 1))
        rec.record_placement({X: 0, Y: 1})
        rec.mark_iteration(0, 0.0)
        rec.mark_iteration(1, 1.0)
        rec.record_sample(X, 0, 0, 1.0)
        rec.record_sample(Y, 0, 1, 1.0)
        rec.record_lb_step(time=1.0, iteration=1, migrations=[])
        rec.record_sample(X, 1, 0, 1.0)
        rec.record_sample(Y, 1, 1, 1.0)
        rec.close(2.0)
        (step,) = rec.payload()["steps"]
        assert step["recovered_s"] == 0.0 and step["recoverable_s"] == 0.0
        assert step["efficiency"] is None and step["sane"]


# ---------------------------------------------------------------------------
# the audit join
# ---------------------------------------------------------------------------


def _audit_record(**over):
    record = {
        "iteration": 2,
        "strategy": "greedy",
        "candidates": [
            {"chare": ["c", 1], "src": 0, "dst": 1, "reason": "max-min",
             "outcome": "accepted"},
            {"chare": ["c", 0], "src": 0, "dst": 1, "reason": "over-eps",
             "outcome": "rejected"},
        ],
    }
    record.update(over)
    return record


class TestAuditJoin:
    def test_reason_strategy_and_rejected_count_joined(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        (step,) = rec.payload(audit=[_audit_record()])["steps"]
        assert step["strategy"] == "greedy"
        assert step["rejected"] == 1
        assert step["migrations"] == [
            {"chare": "c[1]", "src": 0, "dst": 1, "reason": "max-min"}
        ]

    def test_unjoined_migration_has_no_reason(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        (step,) = rec.payload(audit=[_audit_record(candidates=[])])["steps"]
        assert step["migrations"][0]["reason"] is None
        assert step["rejected"] == 0

    def test_audit_length_mismatch_rejected(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        with pytest.raises(LineageError, match="audit trail has 2"):
            rec.payload(audit=[_audit_record(), _audit_record()])

    def test_audit_iteration_mismatch_rejected(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        with pytest.raises(LineageError, match="audit iteration"):
            rec.payload(audit=[_audit_record(iteration=3)])

    def test_without_audit_fields_are_none(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        (step,) = rec.payload()["steps"]
        assert step["strategy"] is None and step["rejected"] is None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


class TestRendering:
    def _payload(self):
        rec = _two_chare_recorder()
        rec.close(4.0)
        return rec.payload(audit=[_audit_record()])

    def test_text_summary_reads_the_whole_story(self):
        text = format_lineage_text(self._payload(), label="tiny")
        assert text.startswith("tiny: app: 4 iterations x 2 cores")
        assert "λ  2.000" in text
        assert "LB step 0 [greedy] before iter 2" in text
        assert "recovered 2.000000/2.000000 core-s (100% of achievable)" in text
        assert "c[1]" in text and "core 0 -> 1 (max-min)" in text
        assert "residual hotspot: core 0" in text
        assert "NOT SANE" not in text

    def test_dot_flow_graph(self):
        dot = lineage_dot(self._payload())
        assert dot.startswith("digraph lineage {")
        assert 'c0 -> c1 [label="1"' in dot
        assert '"core 0\\n50.0%"' in dot

    def test_payload_is_json_safe(self):
        payload = self._payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schema"] == LINEAGE_SCHEMA


# ---------------------------------------------------------------------------
# real runs: the lineage graph is consistent by construction
# ---------------------------------------------------------------------------


def _lineaged_run(params):
    scenario = build_scenario(params)
    trail = AuditTrail()
    lineage = LineageRecorder(job="app", core_ids=scenario.app_core_ids)
    run_scenario(scenario, backend="fast", audit=trail, lineage=lineage)
    return lineage.payload(audit=trail.records)


_graph_params = st.fixed_dictionaries(
    {
        "app": st.sampled_from(["jacobi2d", "wave2d"]),
        "scale": st.sampled_from([0.02, 0.05]),
        "iterations": st.integers(min_value=2, max_value=10),
        "cores": st.sampled_from([2, 4]),
        "balancer": st.sampled_from(["refine-vm", "greedy", "greedy-aware"]),
        "bg": st.booleans(),
        "lb_period": st.sampled_from([2, 3]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)


@settings(max_examples=10, deadline=None)
@given(params=_graph_params)
def test_lineage_graph_consistency(params):
    """Residency intervals tile each chare's lifetime contiguously, and
    every non-initial interval matches exactly one audited migration of
    that chare into that core at that step."""
    payload = _lineaged_run(params)
    n = payload["iterations"]
    edges = 0
    for chare, intervals in payload["residencies"].items():
        assert intervals[0]["from_iteration"] == 0
        assert intervals[0]["lb_step"] is None
        assert intervals[0]["core"] == payload["placement"][chare]
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur["from_iteration"] == prev["to_iteration"]
            assert cur["core"] != prev["core"]
        assert intervals[-1]["to_iteration"] == n
        for cur, prev in zip(intervals[1:], intervals):
            edges += 1
            step = payload["steps"][cur["lb_step"]]
            assert step["iteration"] == cur["from_iteration"]
            matches = [
                m for m in step["migrations"]
                if m["chare"] == chare and m["dst"] == cur["core"]
                and m["src"] == prev["core"]
            ]
            assert len(matches) == 1
            # the audit join resolved this committed move's reason
            assert matches[0]["reason"] is not None
    assert edges == sum(len(s["migrations"]) for s in payload["steps"])
    assert edges == payload["run"]["migrations"]


# ---------------------------------------------------------------------------
# sweep carriage: run_point_lineaged, cache extras, registry
# ---------------------------------------------------------------------------

_SPEC = SweepSpec(name="lin", base=TINY, axes={"balancer": ["none", "refine-vm"]})


class TestSweepCarriage:
    def test_run_point_lineaged_matches_run_point(self):
        params = {**TINY, "balancer": "refine-vm"}
        summary, payload = run_point_lineaged(params)
        assert summary == run_point(params)
        assert payload["schema"] == LINEAGE_SCHEMA
        assert payload["iterations"] == TINY["iterations"]
        assert all(s["strategy"] is not None for s in payload["steps"])

    def test_sweep_lineage_rides_every_point(self):
        plain = run_sweep(_SPEC, workers=1, cache=None)
        lineaged = run_sweep(_SPEC, workers=1, cache=None, lineage=True)
        assert lineaged.summaries() == plain.summaries()
        assert all(r.lineage is not None for r in lineaged.results)
        assert all(r.lineage["schema"] == LINEAGE_SCHEMA
                   for r in lineaged.results)

    def test_cache_round_trip_preserves_payloads(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(_SPEC, workers=1, cache=cache, lineage=True)
        assert not any(r.cached for r in cold.results)
        warm = run_sweep(_SPEC, workers=1, cache=cache, lineage=True)
        assert all(r.cached for r in warm.results)
        assert [r.lineage for r in warm.results] == [
            r.lineage for r in cold.results
        ]

    def test_hits_without_the_extra_are_reexecuted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_SPEC, workers=1, cache=cache)  # no lineage stored
        res = run_sweep(_SPEC, workers=1, cache=cache, lineage=True)
        assert not any(r.cached for r in res.results)
        assert all(r.lineage is not None for r in res.results)
        # and the re-execution back-fills the extra for next time
        warm = run_sweep(_SPEC, workers=1, cache=cache, lineage=True)
        assert all(r.cached for r in warm.results)

    def test_registry_record_carries_payloads_and_aggregate(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry")
        run_sweep(_SPEC, workers=1, cache=None, registry=registry,
                  lineage=True)
        record = registry.load("latest")
        assert all(p["lineage"] is not None for p in record["points"])
        agg = record["lineage"]
        assert agg["points"] == 2
        assert agg["all_sane"] is True
        assert agg["migrations"] == sum(
            p["lineage"]["run"]["migrations"] for p in record["points"]
        )


# ---------------------------------------------------------------------------
# report section
# ---------------------------------------------------------------------------


def _churn_steps(chare="c[3]", count=4, recovered=0.0):
    return [
        {"step": k, "recovered_s": recovered,
         "migrations": [{"chare": chare, "src": k % 2, "dst": (k + 1) % 2,
                         "reason": None}]}
        for k in range(count)
    ]


class TestReportSection:
    def test_flow_svg_empty_and_weighted(self):
        assert "no migrations" in _migration_flow_svg([], [0, 1])
        steps = _churn_steps(count=4) + [
            {"step": 9, "recovered_s": 0.0,
             "migrations": [{"chare": "c[0]", "src": 0, "dst": 1,
                             "reason": None}]}
        ]
        svg = _migration_flow_svg(steps, [0, 1])
        assert svg.startswith("<svg")
        assert "core 0 &rarr; core 1: 3 migration(s)" in svg
        assert "core 1 &rarr; core 0: 2 migration(s)" in svg

    def test_report_renders_lineage_rows(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry")
        run_sweep(_SPEC, workers=1, cache=None, registry=registry,
                  lineage=True)
        data = build_report(tmp_path / "registry")
        assert len(data["lineage_rows"]) == 2
        row = data["lineage_rows"][0]
        assert row["sweep"] == "lin"
        assert len(row["lambdas"]) == TINY["iterations"]
        assert all(lam >= 1.0 for lam in row["lambdas"])
        html = render_report(data)
        assert "Load imbalance (sweep --lineage)" in html
        assert "✓ sane" in html
        assert '<svg class="spark"' in html

    def test_report_without_lineage_shows_fallback(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry")
        run_sweep(_SPEC, workers=1, cache=None, registry=registry)
        html = render_report(build_report(tmp_path / "registry"))
        assert "Load imbalance (sweep --lineage)" in html
        assert "✓ sane" not in html


# ---------------------------------------------------------------------------
# surfaces: perfetto counters + the `repro lineage` CLI
# ---------------------------------------------------------------------------

#: One point with real LB steps (period 2 under interference) — and,
#: deterministically, a step the replay judges unhelpful (not sane).
_STEPPY = SweepSpec(
    name="steppy",
    base={**TINY, "iterations": 6, "lb_period": 2, "bg": True},
    points=({"label": "rvm", "balancer": "refine-vm"},),
)


class TestSurfaces:
    def test_perfetto_counter_events(self):
        from repro.projections.export import lineage_counter_events

        _, payload = run_point_lineaged(
            {**TINY, "iterations": 6, "lb_period": 2, "bg": True,
             "balancer": "refine-vm"}
        )
        events = lineage_counter_events(payload)
        rows = payload["per_iteration"]
        assert len(events) == 2 * len(rows) == 12
        for pair, row in zip(zip(events[::2], events[1::2]), rows):
            imb, loads = pair
            assert imb["ph"] == loads["ph"] == "C"
            assert imb["ts"] == loads["ts"] == row["start_s"] * 1e6
            assert imb["args"] == {"lambda": row["lambda"],
                                   "cov": row["cov"], "gini": row["gini"]}
            assert loads["args"] == {
                f"core{c}": v for c, v in row["loads"].items()
            }

    def test_lineage_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(_SPEC, workers=1, cache=None, lineage=True,
                  registry=registry)
        rc = main(
            ["lineage", "latest", "--registry", str(tmp_path / "reg"),
             "--output", str(tmp_path / "out"),
             "--perfetto", str(tmp_path / "traces")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-iteration imbalance" in out
        assert (tmp_path / "out" / "lineage.txt").is_file()
        traces = list((tmp_path / "traces").glob("*.lineage.trace.json"))
        assert len(traces) == 2
        events = json.loads(traces[0].read_text())
        assert any(e.get("name") == "imbalance" and e.get("ph") == "C"
                   for e in events)

    def test_lineage_cli_json_recompute_path(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(_SPEC, workers=1, cache=None, registry=registry)
        rc = main(
            ["lineage", "latest", "--registry", str(tmp_path / "reg"),
             "--point", "refine-vm", "--json",
             "--output", str(tmp_path / "out")]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []
        (point,) = doc["points"]
        assert point["recomputed"] is True
        assert point["lineage"]["schema"] == LINEAGE_SCHEMA
        assert json.loads(
            (tmp_path / "out" / "lineage.json").read_text()
        ) == doc

    def test_lineage_cli_dot_output(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(_STEPPY, workers=1, cache=None, lineage=True,
                  registry=registry)
        rc = main(["lineage", "latest", "--registry", str(tmp_path / "reg"),
                   "--dot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lineage {")
        assert "->" in out  # the steppy point really migrates

    def test_lineage_cli_check_gates_on_insane_steps(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(_STEPPY, workers=1, cache=None, lineage=True,
                  registry=registry)
        # a not-sane step is a balancer verdict, not a bug: plain mode
        # reports it in the text but exits 0
        args = ["lineage", "latest", "--registry", str(tmp_path / "reg")]
        assert main(args) == 0
        cap = capsys.readouterr()
        assert "NOT SANE" in cap.out
        assert "VIOLATION" not in cap.err
        # --check turns the verdict into a gate
        assert main(args + ["--check"]) == 1
        assert "NOT SANE" in capsys.readouterr().err
        # ... and a sane run passes it (own registry: a same-second
        # ingest would make `latest` ambiguous between the two runs)
        sane_reg = RunRegistry(tmp_path / "sane-reg")
        run_sweep(_SPEC, workers=1, cache=None, lineage=True,
                  registry=sane_reg)
        assert main(["lineage", "latest", "--registry",
                     str(tmp_path / "sane-reg"), "--check"]) == 0

    def test_lineage_cli_errors_are_clean(self, tmp_path, capsys):
        from repro.cli import main

        args = ["lineage", "latest", "--registry", str(tmp_path / "reg")]
        assert main(args) == 2  # empty registry
        assert "error" in capsys.readouterr().err
        registry = RunRegistry(tmp_path / "reg")
        run_sweep(_SPEC, workers=1, cache=None, registry=registry)
        assert main(args + ["--point", "no-such-label"]) == 2
        assert "no point" in capsys.readouterr().err

    def test_runs_show_json_is_pure(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(_SPEC, workers=1, cache=None, lineage=True,
                  registry=registry)
        rc = main(["runs", "--registry", str(tmp_path / "reg"),
                   "show", "latest"])
        assert rc == 0
        cap = capsys.readouterr()
        assert cap.err == ""
        record = json.loads(cap.out)
        assert all(p["lineage"] is not None for p in record["points"])
