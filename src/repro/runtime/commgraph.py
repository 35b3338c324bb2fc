"""Per-chare communication graphs.

The paper treats communication as a fixed per-iteration cost; its future
work ("due to the inferior performance of network...") motivates making
the runtime *aware* of communication. This module adds that awareness as
an opt-in extension:

* a :class:`CommGraph` records how many bytes each pair of chares
  exchanges per iteration (Charm++'s LB database records exactly this);
* the runtime, given a graph, derives each core's *external* traffic from
  the current object mapping — neighbours co-located on a core are free,
  same-node neighbours cheap, remote neighbours full price — so
  migrations change communication cost, not just CPU balance;
* :class:`~repro.core.commaware.CommAwareRefineLB` exploits the graph
  when choosing receivers.

Stencil applications produce chain graphs (strip i exchanges halo rows
with strips i±1); Mol3D produces a ring over cells with ghost-particle
volumes proportional to cell populations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.util import check_non_negative, left_sum

__all__ = ["CommGraph"]

ChareKey = Tuple[str, int]
Edge = Tuple[ChareKey, ChareKey]


def _norm(a: ChareKey, b: ChareKey) -> Edge:
    return (a, b) if a <= b else (b, a)


class CommGraph:
    """Undirected weighted graph of per-iteration chare communication.

    Edge weights are bytes exchanged per iteration (both directions
    combined). Self-edges are rejected — a chare's internal data motion
    is part of its compute cost, not communication.
    """

    def __init__(
        self, edges: Optional[Mapping[Edge, float]] = None
    ) -> None:
        self._edges: Dict[Edge, float] = {}
        self._adj: Dict[ChareKey, Dict[ChareKey, float]] = {}
        if edges:
            for (a, b), nbytes in edges.items():
                self.add_edge(a, b, nbytes)

    # ------------------------------------------------------------------
    def add_edge(self, a: ChareKey, b: ChareKey, nbytes: float) -> None:
        """Add (or accumulate onto) the edge between ``a`` and ``b``."""
        check_non_negative("nbytes", nbytes)
        if a == b:
            raise ValueError(f"self-communication edge on {a}")
        key = _norm(a, b)
        self._edges[key] = self._edges.get(key, 0.0) + float(nbytes)
        self._adj.setdefault(a, {})[b] = self._edges[key]
        self._adj.setdefault(b, {})[a] = self._edges[key]

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def bytes_between(self, a: ChareKey, b: ChareKey) -> float:
        """Bytes per iteration exchanged between ``a`` and ``b``."""
        return self._edges.get(_norm(a, b), 0.0)

    def neighbors(self, chare: ChareKey) -> Dict[ChareKey, float]:
        """``other -> bytes`` for every chare ``chare`` talks to."""
        return dict(self._adj.get(chare, {}))

    def total_bytes(self) -> float:
        """Total per-iteration communication volume."""
        return left_sum(self._edges.values())

    def chares(self) -> Iterable[ChareKey]:
        """All chares appearing in at least one edge."""
        return self._adj.keys()

    # ------------------------------------------------------------------
    # mapping-dependent quantities
    # ------------------------------------------------------------------
    def per_core_external_bytes(
        self,
        mapping: Mapping[ChareKey, int],
        *,
        node_of: Optional[Mapping[int, int]] = None,
        local_factor: float = 0.25,
    ) -> Dict[int, float]:
        """Effective external bytes each core sends+receives per iteration.

        An edge whose endpoints share a core costs nothing (in-memory
        delivery). Endpoints on distinct cores of the same node cost
        ``local_factor`` of the wire price (shared-memory transport);
        distinct nodes cost full price. Each external edge charges both
        endpoint cores (each drives its half of the exchange).

        Parameters
        ----------
        mapping:
            chare -> core. Every edge endpoint must be mapped.
        node_of:
            core -> node; if omitted, every distinct-core edge is remote.
        local_factor:
            Relative cost of intra-node communication.
        """
        check_non_negative("local_factor", local_factor)
        per_core: Dict[int, float] = {cid: 0.0 for cid in set(mapping.values())}
        for (a, b), nbytes in self._edges.items():
            try:
                ca, cb = mapping[a], mapping[b]
            except KeyError as exc:
                raise ValueError(f"comm edge endpoint {exc} is not mapped") from None
            if ca == cb:
                continue
            factor = 1.0
            if node_of is not None and node_of.get(ca) == node_of.get(cb):
                factor = local_factor
            cost = nbytes * factor
            per_core[ca] += cost
            per_core[cb] += cost
        return per_core

    def cut_bytes(self, mapping: Mapping[ChareKey, int]) -> float:
        """Total bytes crossing core boundaries under ``mapping``."""
        total = 0.0
        for (a, b), nbytes in self._edges.items():
            if mapping[a] != mapping[b]:
                total += nbytes
        return total

    # ------------------------------------------------------------------
    # constructors for common topologies
    # ------------------------------------------------------------------
    @classmethod
    def chain(
        cls, array_name: str, num_chares: int, bytes_per_edge: float
    ) -> "CommGraph":
        """Nearest-neighbour chain — the stencil strip topology."""
        g = cls()
        for i in range(num_chares - 1):
            g.add_edge((array_name, i), (array_name, i + 1), bytes_per_edge)
        return g

    @classmethod
    def ring(
        cls, array_name: str, num_chares: int, bytes_per_edge: float
    ) -> "CommGraph":
        """Chain plus the wrap-around edge — periodic boundaries."""
        g = cls.chain(array_name, num_chares, bytes_per_edge)
        if num_chares > 2:
            g.add_edge((array_name, num_chares - 1), (array_name, 0), bytes_per_edge)
        return g
