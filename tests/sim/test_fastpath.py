"""Fast-path internals: the scalar solo fold on long task chains.

Scenario-level parity lives in ``tests/experiments/test_backend_parity``;
these tests pin the solo fold on cores carrying many chares (the
ablation sweeps go up to 16 chares per core) and the rejection of
negative work, with exact ``==`` against the event engine.
"""

import math

import pytest

from repro.apps import SyntheticApp
from repro.core import LBPolicy, RefineLB
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario


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


@pytest.mark.parametrize("per_core", [16, 25])
def test_solo_chain_fold_bit_identical(per_core):
    cores = 2
    res_e = run_scenario(_chain_scenario(per_core * cores, cores), backend="events")
    res_f = run_scenario(_chain_scenario(per_core * cores, cores), backend="fast")
    assert res_e.app == res_f.app
    assert res_e.energy == res_f.energy
    assert res_e.final_mapping == res_f.final_mapping
    for t in res_f.app.iteration_times:
        assert t > 0.0 and not math.isnan(t)


def test_below_vec_min_scalar_fold_bit_identical():
    cores = 2
    res_e = run_scenario(_chain_scenario(6, cores), backend="events")
    res_f = run_scenario(_chain_scenario(6, cores), backend="fast")
    assert res_e.app == res_f.app
    assert res_e.energy == res_f.energy


def test_negative_work_rejected():
    app = SyntheticApp(
        lambda index, iteration: -1.0 if iteration == 2 else 0.01,
        num_chares=4,
    )
    sc = Scenario(app=app, num_cores=2, iterations=5)
    with pytest.raises(ValueError, match="negative"):
        run_scenario(sc, backend="fast")
