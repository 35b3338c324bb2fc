"""Algorithm 1 — Refinement Load Balancing for VM Interference.

This is the paper's contribution, implemented line-by-line from the
pseudocode (line numbers below refer to Algorithm 1 in the paper):

====================  ====================================================
Paper lines           Here
====================  ====================================================
2–8   classify        :meth:`RefineVMInterferenceLB._classify` builds the
                      ``overheap`` (cores with load > T_avg + ε, line 4)
                      and ``underset`` (load < T_avg − ε, line 6)
17–27 ``isheavy``     ``load > t_avg + eps`` with load = Σ t_i + O_p
29–39 ``islight``     ``t_avg − load > eps``
10–15 transfer loop   :meth:`decide`: pop the most loaded donor (line 11),
                      find the biggest transferable task and its receiver
                      (line 12, :meth:`_best_core_and_task`), update the
                      mapping (line 13) and both loads / structures
                      (line 14), until the overheap empties (line 10)
====================  ====================================================

The crucial difference from classic refinement is that **O_p — the
background load of Eq. (2) — is part of every core's load**: a core that
loses half its cycles to a co-located VM looks half as capacious, so the
algorithm drains application objects off it even though the application's
own work there was perfectly average.

Robustness beyond the pseudocode (the paper assumes a transfer always
exists): if a donor has no task that fits in any underloaded core without
overloading it, the donor is abandoned for this step (best-effort
refinement, as Charm++'s RefineLB does). This guarantees termination —
every loop iteration either migrates one task (donor load strictly drops,
receivers never become overloaded) or permanently removes a donor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.balancer import LoadBalancer
from repro.core.database import ChareKey, LBView, Migration, TaskRecord
from repro.core.heaps import MaxHeap
from repro.telemetry.audit import (
    ACCEPTED,
    REASON_ACCEPTED,
    REASON_NO_UNDERLOADED_TARGET,
    REASON_RECEIVER_WOULD_EXCEED,
    REASON_ZERO_CPU_TASK,
    REJECTED,
)
from repro.util import check_non_negative, left_sum

__all__ = ["RefineVMInterferenceLB"]


def _biggest_first(task: TaskRecord) -> Tuple[float, ChareKey]:
    """Sort key: biggest CPU time first, ties by chare."""
    return (-task.cpu_time, task.chare)


class RefineVMInterferenceLB(LoadBalancer):
    """Interference-aware refinement balancer (the paper's Algorithm 1).

    Parameters
    ----------
    epsilon:
        The operator-tunable slack ε of Eq. (3). Interpreted as a
        *fraction of T_avg* by default (a 32-core run with T_avg = 2 s and
        ``epsilon=0.05`` tolerates ±0.1 s), or as absolute seconds when
        ``absolute_epsilon=True``.
    use_bg_load:
        Include O_p in core loads (Eq. 1). True is the paper's scheme;
        False degrades this class to classic interference-*oblivious*
        refinement (used via :class:`repro.core.refine.RefineLB` as the
        ablation baseline).
    absolute_epsilon:
        Interpret ``epsilon`` in seconds rather than as a fraction.
    """

    name = "refine-vm-interference"

    def __init__(
        self,
        epsilon: float = 0.05,
        *,
        use_bg_load: bool = True,
        absolute_epsilon: bool = False,
    ) -> None:
        check_non_negative("epsilon", epsilon)
        self.epsilon = float(epsilon)
        self.use_bg_load = bool(use_bg_load)
        self.absolute_epsilon = bool(absolute_epsilon)

    # ------------------------------------------------------------------
    # load accounting
    # ------------------------------------------------------------------
    def _core_load(self, core_tasks_time: float, bg_load: float) -> float:
        """Σ t_i (+ O_p when interference-aware) — isheavy/islight's total."""
        return core_tasks_time + (bg_load if self.use_bg_load else 0.0)

    def _t_avg(self, view: LBView) -> float:
        """Eq. (1), degraded to the plain task average when unaware."""
        if not view.cores:
            return 0.0
        return left_sum(
            self._core_load(c.task_time, c.bg_load) for c in view.cores
        ) / len(view.cores)

    def _eps(self, t_avg: float) -> float:
        return self.epsilon if self.absolute_epsilon else self.epsilon * t_avg

    def audit_thresholds(self, view: LBView) -> Tuple[float, Optional[float]]:
        """The strategy's own load model: Eq. (1) T_avg and resolved ε."""
        t_avg = self._t_avg(view)
        return t_avg, self._eps(t_avg)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def decide(self, view: LBView) -> List[Migration]:
        # mutable working state: per-core load, read once per core, and
        # the task location map (kept current as migrations are decided;
        # subclasses such as the communication-aware variant use it)
        load: Dict[int, float] = {}
        location: Dict[ChareKey, int] = {}
        core_tasks: Dict[int, Tuple[TaskRecord, ...]] = {}
        core_load = self._core_load
        for c in view.cores:
            cid = c.core_id
            load[cid] = core_load(c.task_time, c.bg_load)
            core_tasks[cid] = c.tasks
            for t in c.tasks:
                location[t.chare] = cid
        # Eq. (1) over the loads in view order, as _t_avg folds it
        t_avg = left_sum(load.values()) / len(view.cores) if view.cores else 0.0
        eps = self._eps(t_avg)

        overheap, underset = self._classify(view, load, t_avg, eps)

        # donors' task lists, biggest first (the "biggest task" order),
        # sorted when a donor is first popped. Only donors' lists are
        # read: a receiver comes from the underset and stays within
        # T_avg + ε, so it never enters the overheap, and a heavy core
        # receives nothing before its first pop
        donor_lists: Dict[int, List[TaskRecord]] = {}
        migrations: List[Migration] = []
        while len(overheap) > 0:  # line 10
            donor, _donor_load = overheap.pop()  # line 11
            donor_tasks = donor_lists.get(donor)
            if donor_tasks is None:
                donor_tasks = donor_lists[donor] = sorted(
                    core_tasks[donor], key=_biggest_first
                )
            best = self._best_core_and_task(  # line 12
                donor, donor_tasks, load, underset, t_avg, eps,
                location=location,
            )
            if best is None:
                # pseudocode assumes a transfer exists; best-effort: skip
                # this donor for the rest of the step (see module docs).
                continue
            task, dest = best
            migrations.append(Migration(chare=task.chare, src=donor, dst=dest))  # line 13

            # line 14: updateHeapAndSet()
            donor_tasks.remove(task)
            location[task.chare] = dest
            load[donor] -= task.cpu_time
            load[dest] += task.cpu_time
            if load[donor] - t_avg > eps:  # still heavy: back on the heap
                overheap.push(donor, load[donor])
            elif t_avg - load[donor] > eps:  # overshot into lightness
                underset[donor] = True
            if not (t_avg - load[dest] > eps):  # receiver no longer light
                underset.pop(dest, None)

        return migrations

    # ------------------------------------------------------------------
    # helpers (paper lines 2-8 and 12)
    # ------------------------------------------------------------------
    def _classify(
        self,
        view: LBView,
        load: Dict[int, float],
        t_avg: float,
        eps: float,
    ) -> Tuple[MaxHeap[int], Dict[int, bool]]:
        """Lines 2–8: split cores into overheap / underset."""
        overheap: MaxHeap[int] = MaxHeap()
        underset: Dict[int, bool] = {}  # insertion-ordered set of core ids
        for c in view.cores:
            l = load[c.core_id]
            if l - t_avg > eps:  # isheavy, line 22
                overheap.push(c.core_id, l)
            elif t_avg - l > eps:  # islight, line 34
                underset[c.core_id] = True
        return overheap, underset

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
        """Line 12: ``getbestcoreandtask(donor, underset)``.

        Scans the donor's tasks biggest-first; for each, looks for the
        *least-loaded* underloaded core that can absorb it without itself
        becoming overloaded (the paper's constraint: "we only pick an
        underloaded core that does not get overloaded after the task
        transfer"). Returns the first (i.e. biggest) feasible pair.

        ``location`` is the current (mid-decision) task -> core map; the
        base algorithm does not use it, but subclasses refining the
        receiver choice (e.g. communication awareness) do.
        """
        if not underset:
            self.note_candidate(
                None, donor, None, None, REJECTED, REASON_NO_UNDERLOADED_TARGET
            )
            return None
        candidates = sorted(underset, key=lambda cid: (load[cid], cid))
        for task in donor_tasks:
            if task.cpu_time <= 0.0:
                # zero-cost tasks can't reduce donor load; moving them only
                # burns migration bandwidth
                self.note_candidate(
                    task.chare, donor, None, task.cpu_time,
                    REJECTED, REASON_ZERO_CPU_TASK,
                )
                break
            for cid in candidates:
                if load[cid] + task.cpu_time - t_avg <= eps:
                    self.note_candidate(
                        task.chare, donor, cid, task.cpu_time,
                        ACCEPTED, REASON_ACCEPTED,
                    )
                    return task, cid
            # every underloaded receiver would be pushed past T_avg + ε
            self.note_candidate(
                task.chare, donor, None, task.cpu_time,
                REJECTED, REASON_RECEIVER_WOULD_EXCEED,
            )
        return None
