"""Integer accounting behind the ledger and the lineage recorder.

Both probes count time as Python ints: float quanta (``2**-1074``) for
lineage samples, and quanta over a shared weight-share denominator ``M``
for the ledger. These tests pin the representation against Fractions
computed independently here: the float→quanta conversion, the ledger's
denominator growing mid-run (accumulators rescaled, nothing rounded),
and the imbalance statistics against their textbook definitions.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.ledger import BUCKETS, QUANTUM_BITS, TimeLedger, quanta
from repro.obs.lineage import LineageRecorder, imbalance_metrics


class _Proc:
    def __init__(self, owner, weight, key):
        self.owner = owner
        self.weight = weight
        self.key = key


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_quanta_is_exact(x):
    assert F(quanta(x), 1 << QUANTUM_BITS) == F(x)


# ---------------------------------------------------------------------------
# the ledger's shared denominator grows mid-run
# ---------------------------------------------------------------------------

A = ("app", 0)
B = ("app", 1)
C = ("app", 2)


def _drive(led):
    """Solo intervals, then contended ones at total weight 3 and 5.

    Iteration 1 starts at 0.3 and an LB pause covers [0.7, 0.8). Returns
    ``M`` after the solo part and after each contended interval: from 1
    it grows to 3, 15 and 30, each time with non-zero compute, busy and
    per-iteration accumulators to rescale.
    """
    ms = []
    led.mark_iteration(0, 0.0)
    led.mark_iteration(1, 0.3)
    led.mark_pause(0.7, 0.8)
    led.accrue_app(0, 0.0, 0.1, A)
    led.accrue_app(0, 0.1, 0.35, A)  # crosses the iteration-1 mark
    led.accrue(1, 0.0, 0.05, [_Proc("bg", 4.0, ("bg", 1))])  # busy idle
    led.accrue_app(1, 0.05, 0.2, B)
    ms.append(led._m)
    # total weight 3.0: shares 1/3 and 2/3
    led.accrue(0, 0.35, 0.5, [_Proc("app", 1.0, A), _Proc("bg", 2.0, ("bg", 0))])
    ms.append(led._m)
    # total weight 5.0: shares 1/5 and 4/5 (crosses the mark at 0.3)
    led.accrue(1, 0.2, 0.6, [_Proc("bg", 4.0, ("bg", 1)), _Proc("app", 1.0, B)])
    ms.append(led._m)
    # two app tasks and weight 3.0 of co-runner: per-chare stolen share
    # w/app_w - w/total_w = 1/2 - 1/5 = 3/10 (crosses the pause start)
    led.accrue(0, 0.5, 0.75, [
        _Proc("app", 1.0, A), _Proc("app", 1.0, C), _Proc("bg", 3.0, ("bg", 0)),
    ])
    ms.append(led._m)
    # co-runner only: busy overhead inside the pause, busy idle after it
    led.accrue(0, 0.75, 0.9, [_Proc("bg", 2.0, ("bg", 0))])
    # nothing runnable: idle, and overhead inside the pause, never busy
    led.accrue(1, 0.6, 0.9, [])
    led.close(0.9)
    return ms


def _expected():
    t = {x: F(x) for x in (
        0.05, 0.1, 0.2, 0.3, 0.35, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9
    )}
    c3 = t[0.5] - t[0.35]  # core 0 at total weight 3
    c5 = t[0.6] - t[0.2]   # core 1 at total weight 5
    c2 = t[0.75] - t[0.5]  # core 0, two app tasks at total weight 5
    chares = {
        "app[0]": (t[0.35] + c3 / 3 + c2 / 5, c3 * 2 / 3 + c2 * F(3, 10)),
        "app[1]": (t[0.2] - t[0.05] + c5 / 5, c5 * 4 / 5),
        "app[2]": (c2 / 5, c2 * F(3, 10)),
    }
    totals = {
        "compute": sum(c for c, _ in chares.values()),
        "stolen": sum(s for _, s in chares.values()),
        "overhead": (t[0.8] - t[0.75]) + (t[0.8] - t[0.7]),
        "idle": t[0.05] + (t[0.9] - t[0.8]) + (t[0.7] - t[0.6])
        + (t[0.9] - t[0.8]),
    }
    busy = {
        "compute": totals["compute"],
        "stolen": totals["stolen"],
        "overhead": t[0.8] - t[0.75],
        "idle": t[0.05] + (t[0.9] - t[0.8]),
    }
    iter0 = {
        "compute": t[0.3] + (t[0.2] - t[0.05]) + (t[0.3] - t[0.2]) / 5,
        "stolen": (t[0.3] - t[0.2]) * 4 / 5,
        "overhead": F(0),
        "idle": t[0.05],
    }
    return totals, busy, chares, iter0


def test_denominator_growth_keeps_every_value_exact():
    led = TimeLedger(job="app", core_ids=[0, 1])
    assert _drive(led) == [1, 3, 15, 30]
    totals, busy, chares, iter0 = _expected()
    assert led.totals_exact() == totals
    assert led.busy_exact() == busy
    assert all(isinstance(v, F) for v in led.totals_exact().values())
    assert led.conserved and led.residual_exact() == 0
    assert sum(totals.values()) == F(0.9) * 2

    summary = led.summary()
    assert summary["conserved"] is True and summary["residual_s"] == 0.0
    for b in BUCKETS:
        assert summary["totals"][b] == float(totals[b])
        assert summary["busy"][b] == float(busy[b])
        assert summary["fractions"][b] == float(totals[b] / (F(0.9) * 2))
        assert summary["per_iteration"][0][b] == float(iter0[b])
        assert summary["per_iteration"][1][b] == float(totals[b] - iter0[b])
    assert summary["chares"] == {
        name: {"compute": float(c), "stolen": float(s)}
        for name, (c, s) in chares.items()
    }
    assert summary["per_core"]["1"]["stolen"] == float((F(0.6) - F(0.2)) * 4 / 5)


def test_denominator_growth_matches_an_ungrown_twin():
    """Seeding ``M`` up front (no rescale) gives the same ledger."""
    grown = TimeLedger(job="app", core_ids=[0, 1])
    _drive(grown)
    twin = TimeLedger(job="app", core_ids=[0, 1])
    twin._grow(30)
    assert _drive(twin) == [30, 30, 30, 30]
    assert twin.summary() == grown.summary()
    assert twin.busy_exact() == grown.busy_exact()


def test_adjacent_and_empty_pause_windows():
    """Back-to-back pauses are one overhead stretch; an empty one is none."""
    led = TimeLedger(job="app", core_ids=[0])
    led.mark_iteration(0, 0.0)
    led.mark_pause(0.2, 0.3)
    led.mark_pause(0.3, 0.4)
    led.mark_pause(0.5, 0.5)
    led.accrue(0, 0.0, 0.6, [_Proc("bg", 1.0, ("bg", 0))])
    led.close(0.6)
    totals = led.totals_exact()
    assert totals["overhead"] == F(0.4) - F(0.2)
    assert totals["idle"] == F(0.6) - (F(0.4) - F(0.2))
    assert led.busy_exact()["overhead"] == totals["overhead"]


# ---------------------------------------------------------------------------
# imbalance statistics against the textbook formulas
# ---------------------------------------------------------------------------

_load = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=10**6),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**4),
)


def _textbook(loads):
    xs = [F(x) for x in loads]
    n = len(xs)
    total = sum(xs, F(0))
    if total == 0:
        return {"lambda": 1.0, "cov": 0.0, "gini": 0.0,
                "max_s": 0.0, "mean_s": 0.0, "total_s": 0.0}
    mean = total / n
    var = sum(((x - mean) ** 2 for x in xs), F(0)) / n
    # mean absolute difference over all ordered pairs, over twice the mean
    mad = sum((abs(a - b) for a in xs for b in xs), F(0)) / (n * n)
    return {
        "lambda": float(max(xs) / mean),
        "cov": math.sqrt(float(var / (mean * mean))),
        "gini": float(mad / (2 * mean)),
        "max_s": float(max(xs)),
        "mean_s": float(mean),
        "total_s": float(total),
    }


@settings(max_examples=300, deadline=None)
@given(loads=st.lists(_load, min_size=1, max_size=10))
def test_imbalance_metrics_match_textbook_fractions(loads):
    assert imbalance_metrics(loads) == _textbook(loads)


# ---------------------------------------------------------------------------
# lineage: integer payload, Fraction counterfactuals
# ---------------------------------------------------------------------------


def test_counterfactuals_stay_fractions():
    x, y = ("c", 0), ("c", 1)
    rec = LineageRecorder(job="app", core_ids=(0, 1, 2))
    rec.record_placement({x: 0, y: 0})
    rec.mark_iteration(0, 0.0)
    rec.record_sample(x, 0, 0, 0.1)
    rec.record_sample(y, 0, 0, 0.2)
    rec.record_lb_step(
        time=0.3, iteration=1, migrations=[(y, 0, 1)], bg_cpu={2: 0.05}
    )
    rec.mark_iteration(1, 0.3)
    rec.record_sample(x, 1, 0, 0.1)
    rec.record_sample(y, 1, 1, 0.2)
    rec.close(0.5, bg_cpu={2: 0.125})
    (cf,) = rec.counterfactuals()
    interference = F(0.125) - F(0.05)
    assert cf["interference"] == interference
    assert cf["observed_max"] == F(0.2)
    assert cf["nolb_max"] == F(0.1) + F(0.2)
    # three cores: the oracle mean is not a float, and stays exact
    oracle = (F(0.1) + F(0.2) + interference) / 3
    assert cf["oracle_max"] == oracle
    assert cf["recovered"] == F(0.1)
    assert cf["recoverable"] == F(0.1) + F(0.2) - oracle
    assert all(
        isinstance(cf[k], F)
        for k in ("interference", "observed_max", "nolb_max", "oracle_max",
                  "recovered", "recoverable")
    )
    assert cf["efficiency"] == float(F(0.1) / (F(0.1) + F(0.2) - oracle))
    (step,) = rec.payload()["steps"]
    assert step["oracle_max_s"] == float(oracle)
    assert step["lambda_observed"] == float(F(0.2) / oracle)
    assert step["efficiency"] == cf["efficiency"] and step["sane"] == cf["sane"]
