"""Message-driven migratable-object runtime (the Charm++ substitute).

The paper's techniques assume a runtime in which the application is
over-decomposed into many medium-grained *chares* that the system maps to
cores, instruments, and can migrate. This package provides that runtime on
top of the discrete-event substrate:

* :mod:`repro.runtime.chare` — :class:`Chare` / :class:`ChareArray`:
  migratable objects with a per-iteration CPU-work model, serialised-state
  size, and migration hooks.
* :mod:`repro.runtime.messages` — the compute message that drives
  execution: one per entry-method run.
* :mod:`repro.runtime.scheduler` — per-core message queue executing one
  entry method at a time, exactly like a Charm++ PE's scheduler loop.
* :mod:`repro.runtime.runtime` — :class:`Runtime`: one parallel job.
  Owns the object→core mapping, drives iterations (enqueue compute
  messages, barrier, communication delay), invokes the load balancer per
  its :class:`~repro.core.policies.LBPolicy`, applies migrations and
  charges their network cost. Several ``Runtime`` instances can share one
  engine/cluster — that is how the measured background job of Figure 2
  coexists with the application under test.
* :mod:`repro.runtime.reductions` — Charm++-style reductions (sum/max/…)
  contributed by chares and delivered at iteration end.
* :mod:`repro.runtime.tracing` — Projections-style event log consumed by
  :mod:`repro.projections`.
"""

from repro.runtime.chare import Chare, ChareArray
from repro.runtime.commgraph import CommGraph
from repro.runtime.messages import ComputeMsg
from repro.runtime.reductions import Reduction, REDUCERS
from repro.runtime.runtime import Runtime, RunStats
from repro.runtime.tracing import (
    IterationEvent,
    LBStepEvent,
    MigrationEvent,
    TaskEvent,
    TraceLog,
)

__all__ = [
    "Chare",
    "ChareArray",
    "CommGraph",
    "ComputeMsg",
    "Reduction",
    "REDUCERS",
    "Runtime",
    "RunStats",
    "TraceLog",
    "TaskEvent",
    "IterationEvent",
    "LBStepEvent",
    "MigrationEvent",
]
