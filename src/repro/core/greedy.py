"""Greedy from-scratch balancing (Charm++ GreedyLB analogue).

Sorts all tasks by measured time, biggest first, and assigns each to the
currently least-loaded core. Achieves near-perfect balance but ignores the
current placement, so it migrates far more objects than refinement — the
contrast the paper draws with Brunner & Kalé's earlier scheme ("a refined
load balancing algorithm that achieves load balance **while minimizing
task migrations**"). Benchmark ABL-AWARE quantifies that migration-count
difference.

The ``aware`` flag seeds each core's starting load with its background
load O_p, giving an interference-aware greedy variant for comparison.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.core.balancer import LoadBalancer
from repro.core.database import LBView, Migration
from repro.telemetry.audit import (
    ACCEPTED,
    NOTED,
    REASON_ALREADY_LEAST_LOADED,
    REASON_GREEDY_LEAST_LOADED,
)

__all__ = ["GreedyLB"]


class GreedyLB(LoadBalancer):
    """Rebuild the whole mapping greedily at every LB step.

    Parameters
    ----------
    aware:
        When True, core loads start at O_p instead of zero, so heavily
        interfered cores receive proportionally less work.
    """

    name = "greedy"

    def __init__(self, *, aware: bool = False) -> None:
        self.aware = bool(aware)
        if aware:
            self.name = "greedy-aware"

    def decide(self, view: LBView) -> List[Migration]:
        current = view.task_map()
        all_tasks = sorted(
            (t for c in view.cores for t in c.tasks),
            key=lambda t: (-t.cpu_time, t.chare),
        )
        # min-heap of (load, core_id)
        heap = [
            ((c.bg_load if self.aware else 0.0), c.core_id) for c in view.cores
        ]
        heapq.heapify(heap)
        migrations: List[Migration] = []
        for task in all_tasks:
            load, cid = heapq.heappop(heap)
            if current[task.chare] != cid:
                migrations.append(
                    Migration(chare=task.chare, src=current[task.chare], dst=cid)
                )
                self.note_candidate(
                    task.chare, current[task.chare], cid, task.cpu_time,
                    ACCEPTED, REASON_GREEDY_LEAST_LOADED,
                )
            else:
                self.note_candidate(
                    task.chare, cid, cid, task.cpu_time,
                    NOTED, REASON_ALREADY_LEAST_LOADED,
                )
            heapq.heappush(heap, (load + task.cpu_time, cid))
        return migrations
