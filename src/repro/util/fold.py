"""Float totals with one defined summation order.

From Python 3.12, ``sum()`` over floats is compensated (Neumaier
summation), so ``sum([0.1] * 10)`` is ``1.0`` there and
``0.9999999999999999`` on 3.11. The simulator's outputs are pinned bit
for bit (backend parity, reference digests), so every float total in
:mod:`repro` goes through :func:`left_sum`: the plain left-to-right fold,
which every Python version computes alike.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Any, Iterable

__all__ = ["left_sum"]


def left_sum(values: Iterable[Any], start: Any = 0) -> Any:
    """``(((start + v0) + v1) + ...)`` — ``sum()`` without compensation.

    Equal to ``sum(values, start)`` on Python 3.11 and earlier for every
    argument; integer and ``Fraction`` totals are exact either way.
    """
    return reduce(add, values, start)
