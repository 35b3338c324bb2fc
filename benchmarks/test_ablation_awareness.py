"""ABL-AWARE — the paper's actual delta: including O_p in the load model.

Strategy line-up under identical interference:

* NoLB — static mapping (paper's baseline);
* RefineLB — classic refinement, task times only (what Charm++ had);
* GreedyLB — from-scratch greedy, task times only;
* GreedyLB(aware) — greedy seeded with background loads;
* RefineVMInterferenceLB — the paper's Algorithm 1.

Findings (see results/ablation_awareness.txt):

* oblivious refinement is inert — a uniformly decomposed app is already
  internally balanced, so task times alone show nothing to fix;
* greedy strategies reshuffle the whole mapping every step; the
  migration churn costs more than the interference itself, even for the
  aware variant — precisely the paper's stated advantage ("a refined
  load balancing algorithm that achieves load balance while minimizing
  task migrations") over rebuild-style schemes like Brunner & Kalé's;
* the paper's Algorithm 1 is the only strategy that beats noLB here.
"""

import pytest

from benchmarks.ablation_common import interference_run
from benchmarks.conftest import write_artifact
from repro.core import GreedyLB, NoLB, RefineLB, RefineVMInterferenceLB
from repro.experiments import format_table, run_point
from repro.experiments.sweep import summarize_result
from repro.experiments.sweep_presets import _ABLATION_BASE


@pytest.fixture(scope="module")
def lineup():
    strategies = {
        "nolb": NoLB(),
        "refine (oblivious)": RefineLB(0.05),
        "greedy (oblivious)": GreedyLB(),
        "greedy (aware)": GreedyLB(aware=True),
        "refine-vm-interference": RefineVMInterferenceLB(0.05),
    }
    return {
        name: interference_run(strategy)
        for name, strategy in strategies.items()
    }


def test_awareness_lineup(lineup, benchmark):
    benchmark.pedantic(
        interference_run, args=(RefineVMInterferenceLB(0.05),), rounds=1, iterations=1
    )
    rows = [
        (name, res.app_time, res.app.total_migrations)
        for name, res in lineup.items()
    ]
    write_artifact(
        "ablation_awareness",
        format_table(
            ["strategy", "app time (s)", "migrations"],
            rows,
            title="ABL-AWARE — interference awareness is the paper's delta",
            float_fmt="{:.3f}",
        ),
    )


def test_aware_refine_beats_oblivious_refine(lineup):
    assert (
        lineup["refine-vm-interference"].app_time
        < 0.9 * lineup["refine (oblivious)"].app_time
    )


def test_oblivious_refine_is_inert(lineup):
    # on an internally balanced app, a task-time-only refiner sees nothing
    # to fix: within a few percent of the static mapping
    nolb = lineup["nolb"].app_time
    assert lineup["refine (oblivious)"].app_time == pytest.approx(nolb, rel=0.10)
    assert lineup["refine (oblivious)"].app.total_migrations == 0


def test_greedy_churn_is_ruinous(lineup):
    """The paper's point against rebuild-style balancing, quantified.

    Greedy recomputes the whole mapping every step; even the aware
    variant re-shuffles hundreds of objects whose transfer costs dwarf
    the imbalance it fixes. Refinement gets the same balance with two
    orders of magnitude fewer migrations.
    """
    refine = lineup["refine-vm-interference"]
    for name in ("greedy (oblivious)", "greedy (aware)"):
        greedy = lineup[name]
        assert greedy.app.total_migrations > 20 * refine.app.total_migrations
        # churn costs more wall-clock than the interference itself
        assert greedy.app_time > lineup["nolb"].app_time


def test_paper_scheme_is_best_or_tied(lineup):
    best = min(res.app_time for res in lineup.values())
    assert lineup["refine-vm-interference"].app_time <= best * 1.05


@pytest.mark.parametrize(
    "name, balancer",
    [
        ("refine (oblivious)", "refine"),
        ("refine-vm-interference", "refine-vm"),
        ("greedy (oblivious)", "greedy"),
        ("greedy (aware)", "greedy-aware"),
    ],
)
def test_lineup_runs_the_ablation_sweep_scenario(lineup, name, balancer):
    """The line-up and the ABL sweep presets run the same scenario.

    Both size the background job with one rule, so a strategy's run here
    is bit-identical to the matching point at the presets' ABL base.
    """
    point = run_point({**_ABLATION_BASE, "balancer": balancer})
    assert summarize_result(lineup[name]) == point
