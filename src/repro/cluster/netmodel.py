"""Network cost model.

Two costs matter to the reproduction:

* **iteration communication** — after every iteration, a tightly coupled
  application exchanges halo/neighbour data before the next iteration can
  begin. We charge a per-iteration communication delay derived from the
  message size and this model.
* **migration cost** — moving a chare transfers its state; the paper's
  reported wall times include migration, and its future-work section
  proposes skipping migrations whose gain cannot offset this cost
  (implemented in :mod:`repro.core.migration_cost`).

The ``virtualized`` preset reflects the degraded network performance of
clouds that the paper (and the studies it cites, e.g. the Magellan report)
measured: substantially higher latency and lower effective bandwidth than
native HPC interconnects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import check_non_negative, check_positive

__all__ = ["NetworkModel"]

_INF = float("inf")


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth cost model.

    Attributes
    ----------
    latency_s:
        One-way message latency (seconds).
    bandwidth_Bps:
        Effective point-to-point bandwidth (bytes/second).
    per_message_overhead_s:
        Fixed software overhead per message (packetisation, virtio exits in
        the virtualised case).
    """

    latency_s: float = 50e-6
    bandwidth_Bps: float = 125e6  # ~1 GbE effective
    per_message_overhead_s: float = 5e-6

    def __post_init__(self) -> None:
        check_non_negative("latency_s", self.latency_s)
        check_positive("bandwidth_Bps", self.bandwidth_Bps)
        check_non_negative("per_message_overhead_s", self.per_message_overhead_s)

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def native(cls) -> "NetworkModel":
        """Dedicated-cluster Ethernet, as on the paper's testbed."""
        return cls(latency_s=50e-6, bandwidth_Bps=125e6, per_message_overhead_s=5e-6)

    @classmethod
    def virtualized(cls) -> "NetworkModel":
        """Cloud / virtualised network: ~4x latency, ~half bandwidth."""
        return cls(latency_s=200e-6, bandwidth_Bps=60e6, per_message_overhead_s=20e-6)

    @classmethod
    def zero(cls) -> "NetworkModel":
        """Free network — isolates pure CPU effects in unit tests."""
        return cls(latency_s=0.0, bandwidth_Bps=1e18, per_message_overhead_s=0.0)

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def message_time(self, nbytes: float) -> float:
        """Wall time to deliver one ``nbytes`` message."""
        # hot path (one call per halo exchange / reduction hop): inline
        # comparisons accept the common case; the full checker handles the rest
        t = type(nbytes)
        if not ((t is float or t is int) and 0 <= nbytes < _INF):
            check_non_negative("nbytes", nbytes)
        return self.latency_s + self.per_message_overhead_s + nbytes / self.bandwidth_Bps

    def migration_time(self, state_bytes: float) -> float:
        """Wall time to migrate one chare of ``state_bytes`` serialised state.

        Modelled as one bulk transfer plus a pair of control messages
        (the Charm++ migration protocol's pack/unpack handshake).
        """
        check_non_negative("state_bytes", state_bytes)
        return self.message_time(state_bytes) + 2 * self.message_time(64)
