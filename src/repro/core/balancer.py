"""Load balancer interface.

A balancer is a pure strategy: :class:`LBView` in, migrations out. All
state the paper's algorithm needs (measured task times, background loads)
is in the view; balancers must not reach into the runtime or simulator.
That mirrors Charm++'s strategy plug-in contract ("Programmers can add
their own application or platform specific strategy to the load balancing
framework") and is what lets the benchmarks swap strategies freely.

Audit hook
----------
:meth:`LoadBalancer.balance` doubles as the **audit hook**: when a sink
is attached (:meth:`attach_audit` — every runtime does this at
construction, with its ``audit=`` trail or ``None``), every step emits
one structured record capturing the view, the thresholds the strategy
used (:meth:`audit_thresholds`), and every candidate migration the
strategy considered (:meth:`note_candidate`, called from strategy
internals) with its accept/reject reason. With no sink attached the hook
collapses to a ``None`` check per step and a ``None`` check per
``note_candidate`` call — strategies stay unconditional and pay nothing.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Tuple

from repro.core.database import ChareKey, LBView, Migration, validate_migrations
from repro.util import get_logger

__all__ = ["LoadBalancer"]

_log = get_logger(__name__)


class LoadBalancer(abc.ABC):
    """Strategy interface: decide migrations from an instrumented view."""

    #: Human-readable strategy name (used in benchmark tables).
    name: str = "base"

    #: Audit sink (``on_step`` protocol) attached by the runtime.
    #: Class-level default keeps strategy ``__init__`` signatures free.
    _audit_sink: Optional[Any] = None

    #: Per-step candidate buffer; non-None only while an audited
    #: :meth:`balance` (or a wrapper lending its buffer) is in flight.
    _step_candidates: Optional[List[Dict[str, Any]]] = None

    @abc.abstractmethod
    def decide(self, view: LBView) -> List[Migration]:
        """Return the migrations to apply for this LB step.

        Implementations must be deterministic and side-effect free with
        respect to the view.
        """

    # ------------------------------------------------------------------
    # audit hook
    # ------------------------------------------------------------------
    def attach_audit(self, sink: Optional[Any]) -> None:
        """Attach (or detach, with None) the audit sink for this strategy.

        The sink must expose ``on_step(strategy=, view=, migrations=,
        candidates=, t_avg=, epsilon_s=)`` —
        :class:`repro.telemetry.AuditTrail` does.
        """
        self._audit_sink = sink

    def audit_thresholds(self, view: LBView) -> Tuple[float, Optional[float]]:
        """``(t_avg, epsilon_seconds)`` as this strategy computed them.

        The base implementation reports the view's Eq. (1) average and no
        ε (strategies without a slack band). Refinement-family strategies
        override this with their own load model's numbers.
        """
        return view.t_avg, None

    def note_candidate(
        self,
        chare: Optional[ChareKey],
        src: Optional[int],
        dst: Optional[int],
        cpu_time: Optional[float],
        outcome: str,
        reason: str,
    ) -> None:
        """Record one considered migration (no-op unless audited)."""
        buf = self._step_candidates
        if buf is not None:
            buf.append(
                {
                    "chare": None if chare is None else [chare[0], int(chare[1])],
                    "src": src,
                    "dst": dst,
                    "cpu_time": cpu_time,
                    "outcome": outcome,
                    "reason": reason,
                }
            )

    def _lend_audit_buffer(self, inner: "LoadBalancer") -> None:
        """Share this strategy's candidate buffer with a wrapped strategy.

        Composite strategies (hierarchical, migration-cost gating) call
        their inner strategy's :meth:`balance`; lending the buffer makes
        the inner strategy's ``note_candidate`` calls land in the outer
        step's record instead of vanishing. Pair with
        :meth:`_reclaim_audit_buffer` in a ``finally``.
        """
        inner._step_candidates = self._step_candidates

    @staticmethod
    def _reclaim_audit_buffer(inner: "LoadBalancer") -> None:
        inner._step_candidates = None

    # ------------------------------------------------------------------
    def balance(self, view: LBView) -> List[Migration]:
        """Decide and validate. This is what the runtime calls.

        Wraps :meth:`decide` with consistency checks so a buggy strategy
        fails loudly instead of corrupting the object mapping, and — when
        an audit sink is attached — emits the step's audit record.
        """
        sink = self._audit_sink
        if sink is None:
            migrations = self.decide(view)
            validate_migrations(view, migrations)
            return migrations

        self._step_candidates = []
        try:
            migrations = self.decide(view)
        finally:
            candidates, self._step_candidates = self._step_candidates, None
        validate_migrations(view, migrations)
        t_avg, epsilon_s = self.audit_thresholds(view)
        sink.on_step(
            strategy=self.name,
            view=view,
            migrations=migrations,
            candidates=candidates,
            t_avg=t_avg,
            epsilon_s=epsilon_s,
        )
        _log.debug(
            "%s: audited LB step -> %d migrations, %d candidates",
            self.name,
            len(migrations),
            len(candidates),
        )
        return migrations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
