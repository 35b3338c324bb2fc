"""The balancer base-class audit hook: every strategy participates."""

import pytest

from repro.cluster.netmodel import NetworkModel
from repro.core.commaware import CommAwareRefineLB
from repro.core.database import LBDatabase, LBView
from repro.core.greedy import GreedyLB
from repro.core.hierarchical import HierarchicalLB
from repro.core.interference import RefineVMInterferenceLB
from repro.core.migration_cost import MigrationCostAwareLB
from repro.telemetry import AuditTrail
from repro.telemetry.audit import (
    ACCEPTED,
    REASON_GAIN_BELOW_COST,
    REJECTED,
)


def _make_view(loads, bg, tasks_per_core=2, window=1.0):
    """A hand-built LBView: ``loads[cid]`` task seconds split over tasks."""
    from repro.core.database import CoreLoad, TaskRecord

    cores = []
    idx = 0
    for cid, total in enumerate(loads):
        tasks = []
        for _ in range(tasks_per_core):
            tasks.append(
                TaskRecord(
                    chare=("app", idx),
                    cpu_time=total / tasks_per_core,
                    state_bytes=1024.0,
                    comm=(),
                )
            )
            idx += 1
        cores.append(
            CoreLoad(
                core_id=cid,
                tasks=tuple(tasks),
                bg_load=bg[cid],
            )
        )
    return LBView(cores=tuple(cores), window=window)


IMBALANCED = ([1.0, 1.0, 1.0, 1.0], [2.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "make_balancer",
    [
        lambda: RefineVMInterferenceLB(0.05),
        lambda: CommAwareRefineLB(0.05),
        lambda: GreedyLB(),
        lambda: GreedyLB(aware=True),
        lambda: HierarchicalLB.by_node(2),
        lambda: MigrationCostAwareLB(
            RefineVMInterferenceLB(0.05), NetworkModel.native()
        ),
    ],
    ids=["refine-vm", "comm-aware", "greedy", "greedy-aware", "hierarchical",
         "migcost"],
)
class TestEveryStrategyAudits:
    def test_step_record_emitted_with_candidates(self, make_balancer):
        balancer = make_balancer()
        trail = AuditTrail()
        balancer.attach_audit(trail)
        view = _make_view(*IMBALANCED)
        migrations = balancer.balance(view)
        assert len(trail) == 1
        record = trail.records[0]
        assert record["strategy"] == balancer.name
        assert record["num_migrations"] == len(migrations)
        assert record["candidates"], "instrumented strategies report candidates"
        for cand in record["candidates"]:
            assert {"chare", "src", "dst", "cpu_time", "outcome", "reason"} <= set(cand)

    def test_decisions_identical_with_and_without_sink(self, make_balancer):
        plain = make_balancer().balance(_make_view(*IMBALANCED))
        audited = make_balancer()
        audited.attach_audit(AuditTrail())
        assert audited.balance(_make_view(*IMBALANCED)) == plain

    def test_no_sink_means_no_buffer(self, make_balancer):
        balancer = make_balancer()
        balancer.balance(_make_view(*IMBALANCED))
        assert balancer._step_candidates is None


class TestCompositeStrategies:
    def test_hierarchical_inner_candidates_land_in_outer_step(self):
        balancer = HierarchicalLB.by_node(2)
        trail = AuditTrail()
        balancer.attach_audit(trail)
        balancer.balance(_make_view(*IMBALANCED))
        assert len(trail) == 1  # no duplicate step from the inner
        outcomes = {c["outcome"] for c in trail.records[0]["candidates"]}
        assert ACCEPTED in outcomes

    def test_migcost_gate_notes_suppressed_migrations(self):
        # an expensive network makes any migration cost-ineffective
        net = NetworkModel(latency_s=10.0, bandwidth_Bps=1.0)
        balancer = MigrationCostAwareLB(
            RefineVMInterferenceLB(0.05), net, safety_factor=1.0
        )
        trail = AuditTrail()
        balancer.attach_audit(trail)
        migrations = balancer.balance(_make_view(*IMBALANCED))
        assert migrations == []
        record = trail.records[0]
        suppressed = [
            c for c in record["candidates"]
            if c["reason"] == REASON_GAIN_BELOW_COST
        ]
        assert suppressed and all(c["outcome"] == REJECTED for c in suppressed)

    def test_thresholds_come_from_inner_strategy(self):
        inner = RefineVMInterferenceLB(0.05)
        outer = HierarchicalLB.by_node(2, inner=inner)
        view = _make_view(*IMBALANCED)
        assert outer.audit_thresholds(view) == inner.audit_thresholds(view)
        t_avg, eps = inner.audit_thresholds(view)
        assert t_avg == pytest.approx(1.5)
        assert eps == pytest.approx(0.05 * 1.5)
