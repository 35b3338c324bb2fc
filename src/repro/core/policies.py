"""When and how the runtime invokes the balancer.

The paper balances *periodically* ("do periodic checks on the state of
load balance"). :class:`LBPolicy` captures that cadence plus the runtime
costs charged per step, keeping them out of the strategy classes (which
stay pure functions of the view).

:class:`AdaptiveLBPolicy` is an extension beyond the paper (in the
spirit of Charm++'s later MetaLB work): it watches the measured
per-iteration imbalance and triggers a step as soon as interference is
*observed*, rather than waiting for the next period boundary — with the
periodic schedule kept as a fallback heartbeat. Benchmark ABL-ADAPTIVE
quantifies the reaction-latency/overhead trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.util import check_non_negative, check_positive

__all__ = ["LBPolicy", "AdaptiveLBPolicy"]


@dataclass(frozen=True)
class LBPolicy:
    """Cadence and cost parameters for periodic load balancing.

    Attributes
    ----------
    period_iterations:
        Invoke the balancer every this many iterations.
    skip_first:
        Number of leading iterations exempt from balancing (lets the first
        instrumentation window fill; Charm++ behaves likewise).
    decision_overhead_s:
        Wall-clock charged for running the strategy itself at each step
        (the centralised gather + algorithm time on the master core).
    """

    #: Whether :meth:`due` reads the measured ``imbalance``. A class
    #: constant, not a field: the runtimes measure per-core iteration
    #: walls only for policies that set it, and pass ``imbalance=None``
    #: to all others.
    reads_imbalance: ClassVar[bool] = False

    period_iterations: int = 10
    skip_first: int = 0
    decision_overhead_s: float = 1e-3

    def __post_init__(self) -> None:
        check_positive("period_iterations", self.period_iterations)
        check_non_negative("skip_first", self.skip_first)
        check_non_negative("decision_overhead_s", self.decision_overhead_s)

    def due(
        self,
        completed_iteration: int,
        total_iterations: int,
        *,
        imbalance: Optional[float] = None,
        since_last_lb: Optional[int] = None,
    ) -> bool:
        """Should an LB step run after ``completed_iteration`` finished?

        Iterations are counted from 1. Balancing after the final iteration
        is pointless and never signalled. The runtime also passes the
        number of iterations ``since_last_lb`` and the measured
        per-iteration ``imbalance`` (max over cores of the iteration wall
        share, divided by the mean). ``imbalance`` is None unless the
        policy class sets :attr:`reads_imbalance`. The periodic policy
        ignores both — they exist for adaptive subclasses.
        """
        if completed_iteration >= total_iterations:
            return False
        if completed_iteration <= self.skip_first:
            return False
        return (completed_iteration - self.skip_first) % self.period_iterations == 0


@dataclass(frozen=True)
class AdaptiveLBPolicy(LBPolicy):
    """Imbalance-triggered balancing with a periodic fallback.

    Triggers a step when the last iteration's measured imbalance ratio
    (slowest core's wall share over the mean) exceeds
    ``imbalance_threshold`` — i.e. as soon as interference visibly skews
    an iteration — but never more often than every
    ``min_gap_iterations``. The inherited ``period_iterations`` still
    fires as a heartbeat, catching slow drift the threshold misses.

    Attributes
    ----------
    imbalance_threshold:
        Trigger level for max/mean per-core iteration wall time
        (1.0 = perfectly balanced; interference at fair sharing pushes
        the interfered core toward 2.0).
    min_gap_iterations:
        Minimum iterations between steps, so one disturbance does not
        cause a burst of migrations before its effect is measured.
    """

    reads_imbalance: ClassVar[bool] = True

    imbalance_threshold: float = 1.25
    min_gap_iterations: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.imbalance_threshold < 1.0:
            raise ValueError(
                f"imbalance_threshold must be >= 1.0, got {self.imbalance_threshold}"
            )
        check_positive("min_gap_iterations", self.min_gap_iterations)

    def due(
        self,
        completed_iteration: int,
        total_iterations: int,
        *,
        imbalance: Optional[float] = None,
        since_last_lb: Optional[int] = None,
    ) -> bool:
        if completed_iteration >= total_iterations:
            return False
        if completed_iteration <= self.skip_first:
            return False
        if since_last_lb is not None and since_last_lb < self.min_gap_iterations:
            return False
        if imbalance is not None and imbalance > self.imbalance_threshold:
            return True
        return super().due(completed_iteration, total_iterations)
