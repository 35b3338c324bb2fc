"""Messages driving the runtime.

Charm++ execution is message-driven: an entry method runs only when a
message for it reaches the object's core. The reproduction keeps that
structure — the iteration driver *enqueues messages*, per-core schedulers
*execute* them — because it is precisely what makes migration trivial
(re-route future messages) and instrumentation natural (measure per
message execution).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

__all__ = ["ComputeMsg"]

ChareKey = Tuple[str, int]


class ComputeMsg(NamedTuple):
    """Run one iteration's entry method on a chare.

    Attributes
    ----------
    chare:
        Target object.
    iteration:
        Iteration number the entry method belongs to (0-based).
    """

    chare: ChareKey
    iteration: int
