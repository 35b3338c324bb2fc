"""Power metering over a simulated cluster.

:class:`PowerMeter` plays the role of the testbed's per-node watt meters.
Energy is computed *exactly* from each core's integrated busy time (the
power model is affine in busy cores, so no sampling error is introduced);
a per-second power series — what the real meters reported — can be
reconstructed from the cores' busy-interval logs for plots and timelines.

Typical usage::

    meter = PowerMeter(cluster, PowerModel(), nodes=cluster.nodes)
    mark = meter.reading()           # before the run
    ...                              # simulate
    done = meter.reading()
    window = done - mark             # EnergyReading supports subtraction
    window.average_power_w
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.power.model import PowerModel
from repro.util import check_positive

if TYPE_CHECKING:  # NumPy is imported by power_series only
    import numpy as np

__all__ = [
    "EnergyReading",
    "PowerMeter",
    "decompose_energy",
    "exact_dynamic_split",
    "read_nodes",
]


@dataclass(frozen=True)
class EnergyReading:
    """Cumulative meter state at one instant (supports windowing by ``-``).

    Attributes
    ----------
    time:
        Simulated time of the reading.
    energy_j:
        Cumulative energy since t=0 for the metered nodes.
    busy_core_seconds:
        Cumulative Σ busy time over metered cores.
    """

    time: float
    energy_j: float
    busy_core_seconds: float

    def __sub__(self, earlier: "EnergyReading") -> "EnergyReading":
        if earlier.time > self.time:
            raise ValueError("subtracting a newer reading from an older one")
        return EnergyReading(
            time=self.time - earlier.time,
            energy_j=self.energy_j - earlier.energy_j,
            busy_core_seconds=self.busy_core_seconds - earlier.busy_core_seconds,
        )

    @property
    def average_power_w(self) -> float:
        """Mean power over the window (0 for an empty window)."""
        if self.time <= 0:
            return 0.0
        return self.energy_j / self.time


def read_nodes(nodes: Sequence[Node], model: PowerModel, now: float) -> EnergyReading:
    """Exact cumulative reading of ``nodes`` at simulated time ``now``.

    Each node's busy time is synced to ``now`` and summed in node order.
    The one reading code: :meth:`PowerMeter.reading` and the experiment
    runner's metering of either backend's cores both call it.
    """
    busy = 0.0
    for node in nodes:
        busy += node.total_busy_time()
    energy = model.energy(now, busy, len(nodes)) if now > 0 else 0.0
    return EnergyReading(time=now, energy_j=energy, busy_core_seconds=busy)


class PowerMeter:
    """Meters a set of nodes of a cluster under a :class:`PowerModel`.

    Parameters
    ----------
    cluster:
        The simulated cluster.
    model:
        Power model; its ``cores_per_node`` must match the cluster's.
    nodes:
        Metered subset (default: all nodes). Figure 2's 4-core runs only
        power the nodes the job actually uses — pass that subset to match
        the paper's per-run energy accounting.
    """

    def __init__(
        self,
        cluster: Cluster,
        model: Optional[PowerModel] = None,
        nodes: Optional[Sequence[Node]] = None,
    ) -> None:
        self.cluster = cluster
        self.model = model or PowerModel(cores_per_node=cluster.cores_per_node)
        if self.model.cores_per_node != cluster.cores_per_node:
            raise ValueError(
                f"model.cores_per_node ({self.model.cores_per_node}) != "
                f"cluster.cores_per_node ({cluster.cores_per_node})"
            )
        self.nodes: List[Node] = list(nodes) if nodes is not None else list(cluster.nodes)
        if not self.nodes:
            raise ValueError("PowerMeter needs at least one node")

    # ------------------------------------------------------------------
    # exact integration
    # ------------------------------------------------------------------
    def reading(self) -> EnergyReading:
        """Exact cumulative reading at the current simulated time."""
        return read_nodes(self.nodes, self.model, self.cluster.engine.now)

    # ------------------------------------------------------------------
    # reconstructed time series (requires record_intervals=True)
    # ------------------------------------------------------------------
    def power_series(
        self, t_end: float, dt: float = 1.0, t_start: float = 0.0
    ) -> "np.ndarray":
        """Per-sample total power (W) over [t_start, t_end), step ``dt``.

        Each sample is the *time-averaged* power over its interval, i.e.
        what a watt meter integrating over ``dt`` (the paper's meters
        reported per-second values) would display. Requires the cluster to
        have been built with ``record_intervals=True``.
        """
        import numpy as np

        check_positive("dt", dt)
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        edges = np.arange(t_start, t_end + dt / 2, dt)
        n_bins = len(edges) - 1
        busy_per_bin = np.zeros(n_bins)
        recorded = False
        for node in self.nodes:
            for core in node.cores:
                if core.record_intervals:
                    recorded = True
                for (s, e, _n) in core.busy_intervals:
                    # overlap of [s, e) with each bin
                    lo = np.clip(edges[:-1], s, e)
                    hi = np.clip(edges[1:], s, e)
                    busy_per_bin += np.maximum(hi - lo, 0.0)
        if not recorded:
            raise RuntimeError(
                "power_series needs cores built with record_intervals=True"
            )
        base = len(self.nodes) * self.model.base_w
        return base + self.model.dynamic_per_core_w * busy_per_bin / dt


# ---------------------------------------------------------------------------
# energy decomposition (the ledger's joule attribution)
# ---------------------------------------------------------------------------
def exact_dynamic_split(
    dynamic_j: float, busy_by_bucket: Mapping[str, Any]
) -> Dict[str, Fraction]:
    """Split dynamic joules across ledger buckets, exactly.

    ``busy_by_bucket`` maps bucket name -> busy core-seconds (float or
    Fraction, e.g. :meth:`repro.obs.ledger.TimeLedger.busy_exact`). The
    shares are ``dynamic_j * busy_b / total_busy`` in exact rational
    arithmetic, so they sum to ``Fraction(dynamic_j)`` with zero residue.
    All-zero busy time yields all-zero shares.
    """
    busy = {b: Fraction(v) for b, v in busy_by_bucket.items()}
    total = sum(busy.values(), Fraction(0))
    if total == 0:
        return {b: Fraction(0) for b in busy}
    dyn = Fraction(dynamic_j)
    return {b: dyn * v / total for b, v in busy.items()}


def decompose_energy(
    model: PowerModel,
    *,
    duration_s: float,
    busy_core_seconds: float,
    nodes: int,
    busy_by_bucket: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Decompose an energy window into base/dynamic (and ledger buckets).

    The base and dynamic terms use :meth:`PowerModel.base_energy` /
    :meth:`PowerModel.dynamic_energy`, which mirror :meth:`PowerModel.
    energy` operand for operand — so ``base_j + dynamic_j`` reconciles
    **bit-exactly** with the ``energy_j`` a :class:`PowerMeter` reading
    reports for the same window (including the empty-window 0.0 special
    case).

    With ``busy_by_bucket`` (the ledger's exact busy split), the dynamic
    term is further attributed per bucket via :func:`exact_dynamic_split`;
    the returned per-bucket floats are rounded from exact shares that sum
    to the dynamic term with zero residue.
    """
    if duration_s > 0:
        base_j = model.base_energy(duration_s, nodes)
        dynamic_j = model.dynamic_energy(busy_core_seconds)
    else:
        base_j = 0.0
        dynamic_j = 0.0
    out: Dict[str, Any] = {
        "energy_j": base_j + dynamic_j,
        "base_j": base_j,
        "dynamic_j": dynamic_j,
        "dynamic_by_bucket": None,
    }
    if busy_by_bucket is not None:
        shares = exact_dynamic_split(dynamic_j, busy_by_bucket)
        out["dynamic_by_bucket"] = {b: float(v) for b, v in shares.items()}
    return out
