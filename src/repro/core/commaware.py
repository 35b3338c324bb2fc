"""Communication-aware refinement — locality-preserving receiver choice.

An extension in the direction of the paper's §VI future work ("due to the
inferior performance of network..."): Algorithm 1's correctness comes
from *which tasks leave* an interfered core; it leaves freedom in *where
they land*. :class:`CommAwareRefineLB` keeps the paper's donor selection,
biggest-task ordering, and the Eq.-(3) receiver constraint, but among the
feasible underloaded receivers it picks the one to which the migrating
task has the most recorded communication (falling back to least-loaded,
exactly the base behaviour, when the task has no recorded partners).

The strategy reads only the instrumentation database — each
:class:`~repro.core.database.TaskRecord`'s recorded ``comm`` partners —
never the application's communication graph directly, preserving the
Charm++ contract. It pays off when the runtime's communication delay is
mapping-dependent (``Runtime(comm_graph=...)``): landing a stencil strip
next to its halo partner keeps that edge off the wire. Benchmark
ABL-COMM measures the delta on a degraded (virtualised) network.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.database import ChareKey, TaskRecord
from repro.core.interference import RefineVMInterferenceLB
from repro.telemetry.audit import (
    ACCEPTED,
    REASON_ACCEPTED,
    REASON_NO_UNDERLOADED_TARGET,
    REASON_RECEIVER_WOULD_EXCEED,
    REASON_ZERO_CPU_TASK,
    REJECTED,
)

__all__ = ["CommAwareRefineLB"]


class CommAwareRefineLB(RefineVMInterferenceLB):
    """Algorithm 1 with locality-preserving receiver selection.

    Parameters
    ----------
    epsilon, use_bg_load, absolute_epsilon:
        As in :class:`RefineVMInterferenceLB`.
    """

    name = "refine-vm-interference-comm"

    def _best_core_and_task(
        self,
        donor: int,
        donor_tasks: List[TaskRecord],
        load: Dict[int, float],
        underset: Dict[int, bool],
        t_avg: float,
        eps: float,
        *,
        location: Optional[Dict[ChareKey, int]] = None,
    ) -> Optional[Tuple[TaskRecord, int]]:
        """Biggest task first; receiver with the most affinity bytes.

        Feasibility (receiver must not become overloaded) is identical to
        the base algorithm; only the ranking among feasible receivers
        changes: descending bytes the task exchanges with chares already
        on that receiver, then ascending load, then core id.
        """
        if not underset:
            self.note_candidate(
                None, donor, None, None, REJECTED, REASON_NO_UNDERLOADED_TARGET
            )
            return None
        for task in donor_tasks:
            if task.cpu_time <= 0.0:
                self.note_candidate(
                    task.chare, donor, None, task.cpu_time,
                    REJECTED, REASON_ZERO_CPU_TASK,
                )
                break
            feasible = [
                cid
                for cid in underset
                if load[cid] + task.cpu_time - t_avg <= eps
            ]
            if not feasible:
                self.note_candidate(
                    task.chare, donor, None, task.cpu_time,
                    REJECTED, REASON_RECEIVER_WOULD_EXCEED,
                )
                continue
            affinity: Dict[int, float] = {cid: 0.0 for cid in feasible}
            if location is not None:
                for other, nbytes in task.comm:
                    cid = location.get(other)
                    if cid in affinity:
                        affinity[cid] += nbytes
            feasible.sort(key=lambda cid: (-affinity[cid], load[cid], cid))
            self.note_candidate(
                task.chare, donor, feasible[0], task.cpu_time,
                ACCEPTED, REASON_ACCEPTED,
            )
            return task, feasible[0]
        return None
