"""Deterministic random-number handling.

The whole library is deterministic given a seed: simulations never read
wall-clock time or global RNG state. Any function that needs randomness
accepts a ``seed`` / ``rng`` argument and funnels it through
:func:`resolve_rng`.

For fan-out (sweeps, repeated cases, worker processes) use
:func:`derive_seed`: it hashes a root seed together with any number of
string/int keys into a fresh 63-bit seed, so every scenario of a sweep
gets an independent, reproducible stream regardless of execution order
or of which process runs it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # NumPy is imported where a generator is made
    import numpy as np

RngLike = Union[None, int, "np.random.Generator"]


def derive_seed(root: int, *keys: Union[str, int]) -> int:
    """Derive a child seed from ``root`` and a path of ``keys``.

    The derivation is a SHA-256 over the decimal root and the keys, so it
    is stable across processes, platforms, and Python hash randomisation
    — the property parallel sweep workers rely on for per-scenario
    deterministic seeding.
    """
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for key in keys:
        h.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
        h.update(str(key).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def resolve_rng(seed: RngLike = None) -> "np.random.Generator":
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh default seed 0 — deterministic by policy),
    an integer seed, or an existing ``Generator`` (returned unchanged, so
    callers can thread one generator through a pipeline). NumPy is
    imported here, not with the module, so a run that never draws a
    random number never loads it.
    """
    import numpy as np

    if seed is None:
        return np.random.default_rng(0)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int, or numpy Generator, got {seed!r}")
