"""Chares: migratable, instrumented work objects.

A :class:`Chare` is the unit of decomposition, instrumentation and
migration — the paper's "charm++ objects or chares ... medium grained
pieces". Applications subclass it and implement :meth:`Chare.work`, the
CPU-seconds one iteration of this object costs (typically from the
object's share of the grid/particles; see :mod:`repro.apps`). Optionally
:meth:`Chare.execute` performs *real* computation (NumPy kernels) so the
simulated costs stay anchored to genuine numerics.

A :class:`ChareArray` groups chares under one name with a default
block mapping onto cores — the Charm++ chare-array idiom, "the number of
objects needs to be more than the number of available processors"
(overdecomposition).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util import check_non_negative, check_positive

__all__ = ["Chare", "ChareArray"]

ChareKey = Tuple[str, int]

_INF = float("inf")


class Chare:
    """One migratable object.

    Parameters
    ----------
    index:
        Index within the owning array.
    state_bytes:
        Serialised size; migration of this chare transfers this much data.

    Subclasses override :meth:`work` (mandatory: the CPU cost model) and
    may override :meth:`execute` (real computation hook, default no-op)
    and :meth:`on_migrate`.
    """

    def __init__(self, index: int, *, state_bytes: float = 0.0) -> None:
        # constructed per chare per run: inline comparisons accept the
        # common case, the full checkers handle everything else
        if not (
            type(index) is int
            and index >= 0
            and type(state_bytes) is float
            and 0.0 <= state_bytes < _INF
        ):
            check_non_negative("index", index)
            check_non_negative("state_bytes", state_bytes)
        self.index = int(index)
        self.state_bytes = float(state_bytes)
        #: set by the owning array on registration
        self.array_name: str = ""
        #: maintained by the runtime
        self.current_core: Optional[int] = None

    # -- identity ------------------------------------------------------
    @property
    def key(self) -> ChareKey:
        """Hashable identity ``(array_name, index)``."""
        return (self.array_name, self.index)

    # -- behaviour (override points) ------------------------------------
    def work(self, iteration: int) -> float:
        """CPU-seconds this chare's entry method costs at ``iteration``.

        Must be non-negative and deterministic for a given iteration.
        """
        raise NotImplementedError

    def execute(self, iteration: int) -> None:
        """Perform the real computation for ``iteration`` (optional).

        The runtime calls this when constructed with ``run_kernels=True``;
        the default is a no-op so large simulations stay fast.
        """

    def on_migrate(self, src_core: int, dst_core: int) -> None:
        """Hook invoked after this chare is migrated (default no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.array_name}[{self.index}])"


class ChareArray:
    """A named collection of chares with an initial block mapping.

    Parameters
    ----------
    name:
        Array name, unique within a runtime.
    chares:
        The member objects; their ``array_name`` is set here.
    """

    def __init__(self, name: str, chares: Sequence[Chare]) -> None:
        if not name:
            raise ValueError("ChareArray name must be non-empty")
        if not chares:
            raise ValueError(f"ChareArray {name!r} needs at least one chare")
        indices = [c.index for c in chares]
        if len(set(indices)) != len(indices):
            raise ValueError(f"ChareArray {name!r} has duplicate indices")
        self.name = name
        self.chares: List[Chare] = sorted(chares, key=lambda c: c.index)
        for c in self.chares:
            c.array_name = name

    def __len__(self) -> int:
        return len(self.chares)

    def __iter__(self):
        return iter(self.chares)

    def __getitem__(self, index: int) -> Chare:
        for c in self.chares:
            if c.index == index:
                return c
        raise KeyError(f"{self.name}[{index}]")

    def block_mapping(self, core_ids: Sequence[int]) -> Dict[ChareKey, int]:
        """Initial mapping: contiguous blocks of chares per core.

        This is Charm++'s default array placement and the static mapping
        the "noLB" runs keep forever. Cores receive ``ceil``/``floor``
        blocks so the imbalance of the *initial* mapping is at most one
        chare.
        """
        if not core_ids:
            raise ValueError("block_mapping needs at least one core")
        n, p = len(self.chares), len(core_ids)
        mapping: Dict[ChareKey, int] = {}
        base, extra = divmod(n, p)
        pos = 0
        for rank, cid in enumerate(core_ids):
            count = base + (1 if rank < extra else 0)
            for c in self.chares[pos : pos + count]:
                mapping[c.key] = cid
            pos += count
        return mapping
