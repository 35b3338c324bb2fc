"""Time-attribution ledger: conservation, attribution, energy, surfaces.

The backend-parity aspects (event engine vs fast path producing
bit-identical ledgers) live in ``tests/experiments/test_backend_parity``;
this module covers the ledger itself — exact accounting mechanics on
synthetic intervals, the conservation invariant over random scenarios,
the energy decomposition reconciling bit-exactly with the meter, and the
surfaces that carry ledgers (sweep results, cache, registry,
waterfall rendering, Perfetto export, the explain CLI).
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.sweep import (
    build_scenario,
    run_point,
    run_point_ledgered,
    run_sweep,
)
from repro.experiments.sweep_presets import smoke_spec
from repro.obs.ledger import (
    BUCKETS,
    LedgerError,
    TimeLedger,
    format_ledger_text,
)
from repro.power.meter import decompose_energy, exact_dynamic_split
from repro.power.model import PowerModel


class _Proc:
    """Minimal runnable-process stand-in (owner / weight / key)."""

    def __init__(self, owner, weight=1.0, key=None):
        self.owner = owner
        self.weight = weight
        self.key = key if key is not None else (owner, 0)


# ---------------------------------------------------------------------------
# exact accounting mechanics
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_proportional_split_is_exact(self):
        led = TimeLedger(core_ids=[0])
        led.mark_iteration(0, 0.0)
        # app (w=1) and bg (w=1) share the core over an awkward float span
        led.accrue(0, 0.0, 0.1, [_Proc("app"), _Proc("bg")])
        led.close(0.1)
        totals = led.totals_exact()
        dt = Fraction(0.1)
        assert totals["compute"] == dt / 2
        assert totals["stolen"] == dt / 2
        assert led.conserved and led.residual_exact() == 0

    def test_weighted_split(self):
        led = TimeLedger(core_ids=[0])
        led.mark_iteration(0, 0.0)
        led.accrue(0, 0.0, 1.0, [_Proc("app", 1.0), _Proc("bg", 3.0)])
        led.close(1.0)
        totals = led.totals_exact()
        assert totals["compute"] == Fraction(1, 4)
        assert totals["stolen"] == Fraction(3, 4)

    def test_overhead_vs_idle_classification(self):
        led = TimeLedger(core_ids=[0])
        led.mark_iteration(0, 0.0)
        led.mark_pause(0.2, 0.3)
        # bg-only stretch spanning the pause window: idle outside it,
        # overhead inside, and all of it busy (a proc was runnable)
        led.accrue(0, 0.0, 0.5, [_Proc("bg")])
        led.close(0.5)
        totals = led.totals_exact()
        assert totals["overhead"] == Fraction(0.3) - Fraction(0.2)
        assert totals["idle"] == Fraction(0.5) - (Fraction(0.3) - Fraction(0.2))
        busy = led.busy_exact()
        assert busy["overhead"] == totals["overhead"]
        assert busy["idle"] == totals["idle"]
        assert led.conserved

    def test_truly_empty_core_is_idle_not_busy(self):
        led = TimeLedger(core_ids=[0])
        led.mark_iteration(0, 0.0)
        led.accrue(0, 0.0, 1.0, [])
        led.close(1.0)
        assert led.totals_exact()["idle"] == Fraction(1)
        assert led.busy_exact()["idle"] == 0

    def test_accrue_app_is_pure_compute(self):
        led = TimeLedger(core_ids=[0])
        led.mark_iteration(0, 0.0)
        led.mark_iteration(1, 0.4)
        led.accrue_app(0, 0.0, 1.0, ("jacobi2d", 3))
        led.close(1.0)
        assert led.totals_exact()["compute"] == Fraction(1)
        summ = led.summary()
        assert summ["chares"] == {
            "jacobi2d[3]": {"compute": 1.0, "stolen": 0.0}
        }
        # the iteration mark at 0.4 split the interval across both rows
        assert summ["per_iteration"][0]["compute"] == pytest.approx(0.4)
        assert summ["per_iteration"][1]["compute"] == pytest.approx(0.6)

    def test_gap_and_overlap_raise(self):
        led = TimeLedger(core_ids=[0])
        led.accrue(0, 0.0, 0.5, [])
        with pytest.raises(LedgerError, match="gap or overlap"):
            led.accrue(0, 0.6, 0.7, [])
        with pytest.raises(LedgerError, match="gap or overlap"):
            led.accrue(0, 0.4, 0.7, [])

    def test_mark_ordering_enforced(self):
        led = TimeLedger(core_ids=[0])
        led.mark_iteration(0, 0.0)
        with pytest.raises(LedgerError, match="out of order"):
            led.mark_iteration(2, 1.0)
        led.mark_iteration(1, 1.0)
        with pytest.raises(LedgerError, match="non-decreasing"):
            led.mark_iteration(2, 0.5)
        led.mark_pause(1.0, 1.5)
        with pytest.raises(LedgerError, match="ordered and disjoint"):
            led.mark_pause(0.5, 0.8)

    def test_close_requires_synced_cores(self):
        led = TimeLedger(core_ids=[0, 1])
        led.accrue(0, 0.0, 1.0, [])
        with pytest.raises(LedgerError, match="sync the core"):
            led.close(1.0)

    def test_post_close_calls_are_noops_and_double_close_raises(self):
        led = TimeLedger(core_ids=[0])
        led.accrue(0, 0.0, 1.0, [])
        led.close(1.0)
        led.accrue(0, 1.0, 2.0, [])  # no-op, not an error
        led.mark_iteration(0, 2.0)  # likewise
        assert led.totals_exact()["idle"] == Fraction(1)
        with pytest.raises(LedgerError, match="already closed"):
            led.close(1.0)

    def test_open_ledger_refuses_summary_and_residual(self):
        led = TimeLedger(core_ids=[0])
        with pytest.raises(LedgerError, match="still open"):
            led.summary()
        with pytest.raises(LedgerError, match="still open"):
            led.residual_exact()

    def test_duplicate_core_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            TimeLedger(core_ids=[0, 0])


# ---------------------------------------------------------------------------
# conservation over real scenarios
# ---------------------------------------------------------------------------

_params = st.fixed_dictionaries(
    {
        "app": st.sampled_from(["jacobi2d", "wave2d", "mol3d"]),
        "scale": st.sampled_from([0.02, 0.05]),
        "iterations": st.integers(min_value=1, max_value=10),
        "cores": st.sampled_from([2, 4, 8]),
        "balancer": st.sampled_from(
            ["none", "refine-vm", "refine", "greedy", "greedy-aware"]
        ),
        "bg": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)


@settings(max_examples=20, deadline=None)
@given(params=_params)
def test_conservation_over_random_scenarios(params):
    """Every simulated core-second lands in exactly one bucket."""
    summary, ledger = run_point_ledgered(params)
    assert ledger["conserved"]
    assert ledger["residual_s"] == 0.0
    assert ledger["wall_s"] == summary.app_time
    # the float view agrees with the exact one to reporting precision
    total = sum(ledger["totals"][b] for b in BUCKETS)
    assert total == pytest.approx(
        ledger["wall_s"] * len(ledger["cores"]), rel=1e-12
    )
    assert sum(ledger["fractions"][b] for b in BUCKETS) == pytest.approx(1.0)


def test_stolen_time_responds_to_bg_weight():
    """More co-runner weight -> more stolen time (the Fig. 2 mechanism)."""
    fractions = []
    for weight in (1.0, 2.0, 4.0):
        _, ledger = run_point_ledgered(
            {
                "app": "jacobi2d",
                "scale": 0.05,
                "iterations": 8,
                "cores": 4,
                "bg": True,
                "bg_weight": weight,
                "balancer": "refine-vm",
            }
        )
        assert ledger["conserved"]
        fractions.append(ledger["fractions"]["stolen"])
    assert fractions[0] < fractions[1] < fractions[2]


def test_no_bg_means_no_stolen_time():
    _, ledger = run_point_ledgered(
        {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 6,
            "cores": 4,
            "bg": False,
            "balancer": "none",
        }
    )
    assert ledger["conserved"]
    assert ledger["totals"]["stolen"] == 0.0
    assert ledger["totals"]["overhead"] == 0.0


def test_lb_run_records_migration_overhead():
    _, ledger = run_point_ledgered(
        {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 8,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        }
    )
    assert ledger["conserved"]
    assert ledger["totals"]["overhead"] > 0.0


# ---------------------------------------------------------------------------
# energy decomposition
# ---------------------------------------------------------------------------


class TestEnergyDecomposition:
    def test_reconciles_bit_exactly_with_meter(self):
        params = {
            "app": "jacobi2d",
            "scale": 0.05,
            "iterations": 8,
            "cores": 4,
            "bg": True,
            "balancer": "refine-vm",
        }
        summary, ledger = run_point_ledgered(params)
        scenario = build_scenario(params)
        nodes = len(
            {cid // scenario.cores_per_node for cid in scenario.app_core_ids}
        )
        model = PowerModel(cores_per_node=scenario.cores_per_node)
        energy = decompose_energy(
            model,
            duration_s=summary.app_time,
            busy_core_seconds=summary.busy_core_seconds,
            nodes=nodes,
            busy_by_bucket=ledger["busy"],
        )
        # bit-exact: the two addends mirror PowerModel.energy operand
        # for operand
        assert energy["base_j"] + energy["dynamic_j"] == summary.energy_j
        assert energy["energy_j"] == summary.energy_j
        assert set(energy["dynamic_by_bucket"]) == set(BUCKETS)

    def test_base_dynamic_mirror_energy(self):
        model = PowerModel()
        for t, busy, nodes in ((1.0, 2.5, 2), (0.1, 0.3, 1), (7.3, 11.9, 4)):
            assert (
                model.base_energy(t, nodes) + model.dynamic_energy(busy)
                == model.energy(t, busy, nodes)
            )

    def test_exact_dynamic_split_sums_with_zero_residue(self):
        busy = {
            "compute": Fraction(1, 3),
            "stolen": Fraction(1, 7),
            "overhead": Fraction(2, 11),
            "idle": Fraction(5, 13),
        }
        dynamic = 12.345
        shares = exact_dynamic_split(dynamic, busy)
        assert sum(shares.values(), Fraction(0)) == Fraction(dynamic)

    def test_all_zero_busy_yields_zero_shares(self):
        shares = exact_dynamic_split(5.0, {b: 0 for b in BUCKETS})
        assert all(v == 0 for v in shares.values())

    def test_empty_window_matches_meter_special_case(self):
        out = decompose_energy(
            PowerModel(), duration_s=0.0, busy_core_seconds=0.0, nodes=1
        )
        assert out["energy_j"] == 0.0
        assert out["base_j"] == 0.0 and out["dynamic_j"] == 0.0


# ---------------------------------------------------------------------------
# sweep / cache / registry carriage
# ---------------------------------------------------------------------------


class TestSweepCarriage:
    def test_ledger_rides_results_without_changing_summaries(self):
        spec = smoke_spec()
        plain = run_sweep(spec, workers=1, cache=None)
        ledgered = run_sweep(spec, workers=1, cache=None, ledger=True)
        assert plain.summaries() == ledgered.summaries()
        for r in ledgered.results:
            assert r.ledger is not None and r.ledger["conserved"]
        for r in plain.results:
            assert r.ledger is None

    def test_cache_roundtrip_preserves_ledger(self, tmp_path):
        from repro.experiments.cache import ResultCache

        spec = smoke_spec()
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(spec, workers=1, cache=cache, ledger=True)
        warm = run_sweep(spec, workers=1, cache=cache, ledger=True)
        assert warm.metrics.cache_hits == len(spec.expand())
        for a, b in zip(cold.results, warm.results):
            assert a.ledger == b.ledger

    def test_unledgered_cache_entries_are_reexecuted(self, tmp_path):
        from repro.experiments.cache import ResultCache

        spec = smoke_spec()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, workers=1, cache=cache)
        again = run_sweep(spec, workers=1, cache=cache, ledger=True)
        assert again.metrics.cache_hits == 0
        assert all(r.ledger is not None for r in again.results)

    def test_registry_carries_points_and_aggregate(self, tmp_path):
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(tmp_path / "reg")
        spec = smoke_spec()
        run_sweep(spec, workers=1, cache=None, ledger=True, registry=registry)
        record = registry.load(registry.resolve("latest"))
        assert record["ledger"]["all_conserved"] is True
        assert record["ledger"]["points"] == len(spec.expand())
        assert set(record["ledger"]["mean_fractions"]) == set(BUCKETS)
        for point in record["points"]:
            assert point["ledger"]["conserved"]


# ---------------------------------------------------------------------------
# rendering + export + CLI
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_waterfall_text(self):
        _, ledger = run_point_ledgered(
            {"app": "jacobi2d", "scale": 0.05, "iterations": 6, "cores": 4,
             "bg": True, "balancer": "refine-vm"}
        )
        text = format_ledger_text(ledger, label="demo", top=3)
        assert "demo:" in text and "[conserved]" in text
        assert "per-core waterfall" in text
        assert "top 3 chares" in text

    def test_waterfall_flags_violation(self):
        _, ledger = run_point_ledgered(
            {"app": "jacobi2d", "scale": 0.05, "iterations": 2, "cores": 2}
        )
        broken = dict(ledger)
        broken["conserved"] = False
        broken["residual_s"] = 1e-3
        assert "NOT CONSERVED" in format_ledger_text(broken)

    def test_perfetto_counter_events(self):
        from repro.projections.export import ledger_counter_events

        _, ledger = run_point_ledgered(
            {"app": "jacobi2d", "scale": 0.05, "iterations": 5, "cores": 4}
        )
        events = ledger_counter_events(ledger)
        assert len(events) == len(ledger["per_iteration"]) == 5
        for event, row in zip(events, ledger["per_iteration"]):
            assert event["ph"] == "C"
            assert event["ts"] == row["start_s"] * 1e6
            assert set(event["args"]) == set(BUCKETS)

    def test_explain_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(
            smoke_spec(), workers=1, cache=None, ledger=True,
            registry=registry,
        )
        rc = main(
            ["explain", "latest", "--registry", str(tmp_path / "reg"),
             "--output", str(tmp_path / "out"),
             "--perfetto", str(tmp_path / "traces")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "[conserved]" in out and "energy:" in out
        assert (tmp_path / "out" / "explain.txt").is_file()
        assert len(list((tmp_path / "traces").glob("*.trace.json"))) == len(
            smoke_spec().expand()
        )

    def test_explain_cli_json_recompute_path(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(smoke_spec(), workers=1, cache=None, registry=registry)
        rc = main(
            ["explain", "latest", "--registry", str(tmp_path / "reg"),
             "--point", "cores=4,balancer=none", "--json",
             "--output", str(tmp_path / "out")]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []
        (point,) = doc["points"]
        assert point["recomputed"] is True
        assert point["ledger"]["conserved"]
        assert point["energy"]["energy_j"] == pytest.approx(
            point["energy"]["base_j"] + point["energy"]["dynamic_j"]
        )
        assert json.loads(
            (tmp_path / "out" / "explain.json").read_text()
        ) == doc

    def test_explain_cli_missing_run_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["explain", "latest", "--registry", str(tmp_path / "reg")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_runs_list_json(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(
            smoke_spec(), workers=1, cache=None, ledger=True,
            registry=registry,
        )
        rc = main(["runs", "--registry", str(tmp_path / "reg"), "list", "--json"])
        assert rc == 0
        lines = json.loads(capsys.readouterr().out)
        assert len(lines) == 1 and lines[0]["kind"] == "sweep"

    def test_report_carries_ledger_rows(self, tmp_path):
        from repro.obs.registry import RunRegistry
        from repro.obs.report import build_report, render_report

        registry = RunRegistry(tmp_path / "reg")
        run_sweep(
            smoke_spec(), workers=1, cache=None, ledger=True,
            registry=registry,
        )
        data = build_report(tmp_path / "reg")
        assert len(data["ledger_rows"]) == len(smoke_spec().expand())
        assert all(r["conserved"] for r in data["ledger_rows"])
        html = render_report(data)
        assert "Time attribution" in html
