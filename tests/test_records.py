"""The hot-path records: LB view parts, ``/proc/stat`` snapshots, trace
events and compute messages.

They are named tuples, built at every LB step, task or message; these
tests pin what callers rely on: immutability, pickling (pool workers
ship traces), ``repr``/``==``/``hash`` by field values, and the
validation the LB records keep on public construction.
"""

import math
import pickle

import pytest

from repro.core.database import CoreLoad, Migration, TaskRecord
from repro.runtime.messages import ComputeMsg
from repro.runtime.tracing import (
    IterationEvent,
    LBStepEvent,
    MigrationEvent,
    TaskEvent,
)
from repro.sim.procstat import CoreStatSnapshot

_TASK = TaskRecord(("a", 0), 1.5, 64.0, ((("a", 1), 8.0),))

#: (class, field values) of one instance of every converted record
RECORDS = [
    (TaskRecord, (("a", 0), 1.5, 64.0, ((("a", 1), 8.0),))),
    (CoreLoad, (3, (_TASK,), 0.25, 1.5)),
    (Migration, (("a", 0), 1, 2)),
    (CoreStatSnapshot, (2.0, 1.5, 0.5, 1.25)),
    (TaskEvent, (1, ("a", 0), 4, 0.5, 0.75, 0.2)),
    (IterationEvent, (4, 0.5, 0.9)),
    (LBStepEvent, (1.0, 5, 2, 0.01, 0.3, 0.4)),
    (MigrationEvent, (1.0, ("a", 0), 1, 2, 64.0)),
    (ComputeMsg, (("a", 0), 4)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def _other(values):
    """``values`` with the last field changed (still valid)."""
    last = values[-1]
    if isinstance(last, tuple):
        changed = ()
    elif isinstance(last, int):
        changed = last + 1
    else:
        changed = last + 1.0
    return (*values[:-1], changed)


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
class TestRecordValueSemantics:
    def test_fields_are_read_only(self, cls, values):
        rec = cls(*values)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = 1  # no instance dict either

    def test_pickle_round_trips(self, cls, values):
        rec = cls(*values)
        back = pickle.loads(pickle.dumps(rec, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is cls
        assert back == rec

    def test_repr_names_every_field(self, cls, values):
        rec = cls(*values)
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(cls._fields, values))
        assert repr(rec) == f"{cls.__name__}({inner})"

    def test_eq_and_hash_follow_field_values(self, cls, values):
        rec = cls(*values)
        same = cls(**dict(zip(cls._fields, values)))
        assert rec == same and hash(rec) == hash(same)
        assert hash(rec) == hash(tuple(values))
        assert rec != cls(*_other(values))


class TestLBRecordValidation:
    """The ``ValueError`` cases of the former dataclasses, same text."""

    def test_task_record(self):
        with pytest.raises(ValueError, match=r"^cpu_time must be >= 0, got -1\.0$"):
            TaskRecord(chare=("a", 0), cpu_time=-1.0)
        with pytest.raises(ValueError, match=r"^cpu_time must be finite, got inf$"):
            TaskRecord(("a", 0), math.inf)
        with pytest.raises(ValueError, match=r"^state_bytes must be >= 0, got -1\.0$"):
            TaskRecord(chare=("a", 0), cpu_time=1.0, state_bytes=-1.0)
        with pytest.raises(
            ValueError,
            match=r"^negative comm volume -5\.0 to \('a', 1\) on \('a', 0\)$",
        ):
            TaskRecord(("a", 0), 1.0, comm=((("a", 1), -5.0),))

    def test_task_record_accepts_ints_as_given(self):
        rec = TaskRecord(("a", 0), 1, 2)
        assert rec.cpu_time == 1 and type(rec.state_bytes) is int

    def test_core_load(self):
        with pytest.raises(ValueError, match=r"^bg_load must be >= 0, got -0\.5$"):
            CoreLoad(core_id=0, tasks=(), bg_load=-0.5)
        with pytest.raises(ValueError, match=r"^bg_load must be finite, got nan$"):
            CoreLoad(0, (), math.nan)

    def test_migration(self):
        with pytest.raises(
            ValueError, match=r"^migration of \('a', 0\) to its own core 1$"
        ):
            Migration(chare=("a", 0), src=1, dst=1)

    def test_defaults(self):
        assert TaskRecord(("a", 0), 1.0) == (("a", 0), 1.0, 0.0, ())
        assert CoreLoad(0, ()).bg_load == 0.0
