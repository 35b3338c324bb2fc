"""Fast-path internals: the scalar solo fold on long task chains.

Scenario-level parity lives in ``tests/experiments/test_backend_parity``;
these tests pin the solo fold on cores carrying few and many chares (the
ablation sweeps go up to 16 chares per core), the trace order when
zero-work tasks tie across cores, and the rejection of negative work at
each site that evaluates a task (solo fold, on its first core and on a
later one, replay dispatch, replay completion), with exact ``==`` against
the event engine.
"""

import math

import pytest

from repro.apps import SyntheticApp
from repro.core import LBPolicy, RefineLB
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import BackgroundSpec, Scenario


def _chain_scenario(num_chares, cores):
    # deterministic ragged loads, num_chares / cores tasks per core
    app = SyntheticApp(
        lambda index, iteration: 0.01 + 0.001 * ((index * 7 + iteration * 3) % 11),
        num_chares=num_chares,
        state_bytes=256.0,
    )
    return Scenario(
        app=app,
        num_cores=cores,
        iterations=6,
        balancer=RefineLB(0.05),
        policy=LBPolicy(period_iterations=3),
    )


@pytest.mark.parametrize("per_core", [3, 16, 25])
def test_solo_chain_fold_bit_identical(per_core):
    cores = 2
    res_e = run_scenario(_chain_scenario(per_core * cores, cores), backend="events")
    res_f = run_scenario(_chain_scenario(per_core * cores, cores), backend="fast")
    assert res_e.app == res_f.app
    assert res_e.energy == res_f.energy
    assert res_e.final_mapping == res_f.final_mapping
    for t in res_f.app.iteration_times:
        assert t > 0.0 and not math.isnan(t)


def _zero_work(index, iteration):
    # half the tasks are empty, and chare 1 always is: under the block
    # mapping (four chares per core) every core's first task of an even
    # iteration ends at the iteration start, and core 0 runs three empty
    # tasks in a row there
    if (index + iteration) % 2 == 0 or index % 8 == 1:
        return 0.0
    return 0.01 + 0.001 * (index % 5)


def _tie_scenario(cores, bg):
    background = None
    if bg:
        background = BackgroundSpec(
            model=SyntheticApp(lambda index, iteration: 0.015, num_chares=2),
            core_ids=(0, 1),
            iterations=6,
        )
    return Scenario(
        app=SyntheticApp(_zero_work, num_chares=4 * cores, state_bytes=256.0),
        num_cores=cores,
        iterations=6,
        balancer=RefineLB(0.05),
        policy=LBPolicy(period_iterations=2),
        bg=background,
        tracing=True,
    )


@pytest.mark.parametrize("bg", [False, True], ids=["solo", "contended"])
@pytest.mark.parametrize("cores", [2, 4])
def test_zero_work_ties_trace_in_engine_order(cores, bg):
    """A zero-work completion at T dispatches its successor after the
    other cores' first completions at T in the engine's heap, while the
    fast path folds core by core; both traces follow the TraceLog's
    (end, core) order, so they are equal."""
    res_e = run_scenario(_tie_scenario(cores, bg), backend="events")
    res_f = run_scenario(_tie_scenario(cores, bg), backend="fast")
    assert res_e.app == res_f.app
    tasks = res_e.trace.tasks
    # the case under test: an empty task ends with a task on another core
    ties = {}
    for t in tasks:
        ties.setdefault((t.iteration, t.end), set()).add(t.core_id)
    assert any(
        t.start == t.end and len(ties[t.iteration, t.end]) > 1 for t in tasks
    )
    assert tasks == res_f.trace.tasks
    assert res_e.trace.iterations == res_f.trace.iterations
    assert res_e.trace.lb_steps == res_f.trace.lb_steps
    assert res_e.trace.migrations == res_f.trace.migrations


_SITES = {
    "solo": (False, 0, "_run_solo_cores"),
    # chare 2 is core 1's first task: the second core of the one fold
    # call that advances both solo cores
    "solo-second-core": (False, 2, "_run_solo_cores"),
    "contended": (True, 0, "_dispatch"),
    "contended-later-task": (True, 1, "on_completion"),
}
_BAD_WORK = {"": -1.0, "-nan": math.nan, "-inf": math.inf}


@pytest.mark.parametrize(
    "bg, chare, site, bad",
    [
        (*_SITES[where], _BAD_WORK[value])
        for value in _BAD_WORK
        for where in _SITES
    ],
    ids=[where + value for value in _BAD_WORK for where in _SITES],
)
def test_negative_work_rejected(bg, chare, site, bad):
    # two chares per core: chare 0 is core 0's first task, chare 1 the
    # task the replay dispatches when chare 0 completes, chare 2 core 1's
    # first task. NaN and inf are refused where -1.0 is, as on the engine
    # (the fast path once returned a result for contended NaN and hung on
    # contended inf)
    app = SyntheticApp(
        lambda index, iteration: bad if (index, iteration) == (chare, 2) else 0.01,
        num_chares=4,
    )
    background = None
    if bg:
        background = BackgroundSpec(
            model=SyntheticApp(lambda index, iteration: 0.015, num_chares=2),
            core_ids=(0, 1),
            iterations=10,
        )
    sc = Scenario(app=app, num_cores=2, iterations=5, bg=background)
    with pytest.raises(
        ValueError, match=r"\.work\(2\) returned .*, not a finite non-negative demand"
    ) as err:
        run_scenario(sc, backend="fast")
    assert err.traceback[-1].name == site
    assert f"synthetic[{chare}]" in str(err.value)
    # the engine refuses the same work with the same one-line error
    with pytest.raises(ValueError) as engine_err:
        run_scenario(sc, backend="events")
    assert str(engine_err.value) == str(err.value)
