"""Locality-preferring hierarchical refinement.

Charm++'s hierarchical balancers (HybridLB et al.) try to keep
migrations *within a node*, where object transfer is a shared-memory copy
instead of a wire transfer. :class:`HierarchicalLB` brings that goal to
Algorithm 1 without changing its balance semantics:

1. the inner strategy (flat Algorithm 1 by default) decides migrations on
   the full view — donors, biggest-task order, Eq. (3) feasibility all
   exactly as the paper specifies;
2. each migration's *destination* is then redirected to a core in the
   donor's own group (node) whenever one exists that is also feasible —
   underloaded, and not pushed past ``T_avg + ε`` by the transfer. If no
   intra-group receiver qualifies, the original destination stands.

Balance quality is preserved by construction (every redirected receiver
satisfies the same feasibility bound the inner strategy enforced); the
share of intra-node migrations is maximised greedily. The benefit is
mechanical on a runtime whose migration cost discounts intra-node
transfers (``Runtime(local_comm_factor=...)``) — benchmark ABL-HIER
measures both the locality share and the wall-clock delta.

A note on the road not taken: a *quotient* formulation (one synthetic
core per node, balance groups first) is unstable under the paper's load
model — a node whose interference is concentrated on some of its cores
aggregates to "overloaded" even when its remaining cores have spare
capacity, so successive steps push work out and pull it back. The
redirect formulation sidesteps that while keeping the locality win; the
oscillation is documented by ``tests/core/test_hierarchical_lb.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.balancer import LoadBalancer
from repro.core.database import LBView, Migration
from repro.core.interference import RefineVMInterferenceLB
from repro.telemetry.audit import (
    NOTED,
    REASON_REDIRECT_INTRA_NODE,
    REASON_REDIRECT_KEPT_REMOTE,
)

__all__ = ["HierarchicalLB"]


class HierarchicalLB(LoadBalancer):
    """Algorithm 1 with intra-node destination preference.

    Parameters
    ----------
    group_of:
        ``core_id -> group id``; the canonical grouping is by node
        (:meth:`by_node`).
    inner:
        The deciding strategy (default: fresh
        :class:`RefineVMInterferenceLB`). Must expose ``epsilon`` /
        ``absolute_epsilon`` / ``use_bg_load`` attributes for the
        feasibility re-check; any :class:`RefineVMInterferenceLB`
        subclass qualifies.
    """

    name = "hierarchical"

    def __init__(
        self,
        group_of: Callable[[int], int],
        inner: Optional[RefineVMInterferenceLB] = None,
    ) -> None:
        self.group_of = group_of
        self.inner = inner or RefineVMInterferenceLB(0.05)
        if not isinstance(self.inner, RefineVMInterferenceLB):
            raise TypeError(
                "HierarchicalLB needs a RefineVMInterferenceLB-family inner "
                f"strategy, got {type(self.inner).__name__}"
            )
        self.name = f"hierarchical({self.inner.name})"
        #: statistics from the last decide(): migrations kept intra-group
        self.last_intra = 0
        #: and migrations that had to cross groups
        self.last_inter = 0

    @classmethod
    def by_node(
        cls,
        cores_per_node: int = 4,
        inner: Optional[RefineVMInterferenceLB] = None,
    ) -> "HierarchicalLB":
        """Group cores into consecutive ``cores_per_node`` blocks."""
        if cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        return cls(lambda cid: cid // cores_per_node, inner=inner)

    def audit_thresholds(self, view: LBView):
        """Report the deciding (inner) strategy's thresholds."""
        return self.inner.audit_thresholds(view)

    # ------------------------------------------------------------------
    def decide(self, view: LBView) -> List[Migration]:
        # lend our audit buffer so the inner strategy's candidate notes
        # land in this (outer) step's record
        self._lend_audit_buffer(self.inner)
        try:
            decided = self.inner.balance(view)
        finally:
            self._reclaim_audit_buffer(self.inner)
        if not decided:
            self.last_intra = self.last_inter = 0
            return []

        t_avg = self.inner._t_avg(view)
        eps = self.inner._eps(t_avg)
        cpu = {t.chare: t.cpu_time for c in view.cores for t in c.tasks}

        # working loads under the inner strategy's decisions, applied one
        # migration at a time so redirections see current occupancy
        load: Dict[int, float] = {
            c.core_id: self.inner._core_load(c.task_time, c.bg_load)
            for c in view.cores
        }
        groups: Dict[int, List[int]] = {}
        for c in view.cores:
            groups.setdefault(self.group_of(c.core_id), []).append(c.core_id)

        redirected: List[Migration] = []
        self.last_intra = self.last_inter = 0
        for m in decided:
            task_time = cpu[m.chare]
            dst = m.dst
            src_group = self.group_of(m.src)
            if self.group_of(dst) != src_group:
                # look for a feasible receiver inside the donor's group
                candidates = [
                    cid
                    for cid in groups[src_group]
                    if cid != m.src
                    and t_avg - load[cid] > eps  # islight (line 34)
                    and load[cid] + task_time - t_avg <= eps  # stays feasible
                ]
                if candidates:
                    dst = min(candidates, key=lambda cid: (load[cid], cid))
                self.note_candidate(
                    m.chare, m.src, dst, task_time, NOTED,
                    REASON_REDIRECT_INTRA_NODE
                    if self.group_of(dst) == src_group
                    else REASON_REDIRECT_KEPT_REMOTE,
                )
            if self.group_of(dst) == src_group:
                self.last_intra += 1
            else:
                self.last_inter += 1
            load[m.src] -= task_time
            load[dst] += task_time
            redirected.append(Migration(chare=m.chare, src=m.src, dst=dst))
        return redirected
