"""Unit tests for the LB database and view structures."""

import math

import pytest

from repro.core import CoreLoad, LBDatabase, LBView, Migration, TaskRecord
from repro.core.database import validate_migrations
from repro.sim import SharedCore, SimProcess, SimulationEngine
from repro.sim.procstat import ProcStat


def make_view(loads, bg=None):
    """Helper: one unit task per core with the given cpu_time."""
    bg = bg or [0.0] * len(loads)
    cores = tuple(
        CoreLoad(
            core_id=i,
            tasks=(TaskRecord(chare=("a", i), cpu_time=loads[i]),),
            bg_load=bg[i],
        )
        for i in range(len(loads))
    )
    return LBView(cores=cores, window=max(loads) + max(bg) + 1.0)


def test_task_record_validation():
    with pytest.raises(ValueError):
        TaskRecord(chare=("a", 0), cpu_time=-1.0)
    with pytest.raises(ValueError):
        TaskRecord(chare=("a", 0), cpu_time=1.0, state_bytes=-1.0)


def test_core_load_totals():
    c = CoreLoad(
        core_id=0,
        tasks=(
            TaskRecord(chare=("a", 0), cpu_time=1.0),
            TaskRecord(chare=("a", 1), cpu_time=2.0),
        ),
        bg_load=0.5,
    )
    assert c.task_time == pytest.approx(3.0)
    assert c.total_load == pytest.approx(3.5)


def test_view_t_avg_is_equation_one():
    view = make_view([1.0, 3.0], bg=[0.0, 2.0])
    # (1 + (3+2)) / 2
    assert view.t_avg == pytest.approx(3.0)


def test_view_rejects_duplicate_cores():
    cores = (
        CoreLoad(core_id=0, tasks=()),
        CoreLoad(core_id=0, tasks=()),
    )
    with pytest.raises(ValueError):
        LBView(cores=cores, window=1.0)


def test_view_core_lookup_and_task_map():
    view = make_view([1.0, 2.0])
    assert view.core(1).task_time == pytest.approx(2.0)
    with pytest.raises(KeyError):
        view.core(99)
    assert view.task_map() == {("a", 0): 0, ("a", 1): 1}


def test_empty_view_t_avg_zero():
    assert LBView(cores=(), window=0.0).t_avg == 0.0


def test_migration_to_self_rejected():
    with pytest.raises(ValueError):
        Migration(chare=("a", 0), src=1, dst=1)


def test_validate_migrations_catches_bad_decisions():
    view = make_view([1.0, 2.0])
    # unknown chare
    with pytest.raises(ValueError):
        validate_migrations(view, [Migration(chare=("zz", 9), src=0, dst=1)])
    # wrong source
    with pytest.raises(ValueError):
        validate_migrations(view, [Migration(chare=("a", 0), src=1, dst=0)])
    # destination outside the job
    with pytest.raises(ValueError):
        validate_migrations(view, [Migration(chare=("a", 0), src=0, dst=7)])
    # double move
    with pytest.raises(ValueError):
        validate_migrations(
            view,
            [
                Migration(chare=("a", 0), src=0, dst=1),
                Migration(chare=("a", 0), src=0, dst=1),
            ],
        )
    # a valid set passes
    validate_migrations(view, [Migration(chare=("a", 0), src=0, dst=1)])


class TestLBDatabase:
    def _setup(self):
        eng = SimulationEngine()
        cores = {0: SharedCore(eng, 0), 1: SharedCore(eng, 1)}
        stat = ProcStat(cores, owner="app")
        db = LBDatabase(stat, state_bytes={("a", 0): 100.0})
        return eng, cores, db

    def test_accumulates_task_cpu(self):
        eng, cores, db = self._setup()
        db.record_task(("a", 0), 1.0)
        db.record_task(("a", 0), 0.5)
        view = db.build_view({("a", 0): 0})
        assert view.core(0).task_time == pytest.approx(1.5)
        assert view.core(0).tasks[0].state_bytes == 100.0

    def test_reset_window_zeroes_accumulators(self):
        eng, cores, db = self._setup()
        db.record_task(("a", 0), 1.0)
        db.reset_window()
        view = db.build_view({("a", 0): 0})
        assert view.core(0).task_time == 0.0

    def test_bg_load_derived_from_counters(self):
        eng, cores, db = self._setup()
        # app task and an interloper share core 0 for 2 CPU-s each
        app = SimProcess("t", 2.0, owner="app")
        intruder = SimProcess("x", 2.0, owner="other")
        cores[0].dispatch(app)
        cores[0].dispatch(intruder)
        eng.run()
        db.record_task(("a", 0), app.cpu_time)
        view = db.build_view({("a", 0): 0})
        assert view.core(0).bg_load == pytest.approx(2.0)
        assert view.core(1).bg_load == pytest.approx(0.0)
        assert view.window == pytest.approx(4.0)

    def test_mapping_outside_job_rejected(self):
        eng, cores, db = self._setup()
        with pytest.raises(ValueError):
            db.build_view({("a", 0): 5})

    def test_negative_task_time_rejected(self):
        eng, cores, db = self._setup()
        with pytest.raises(ValueError):
            db.record_task(("a", 0), -0.1)

    def test_construction_checks_sizes_and_comm_volumes(self):
        eng = SimulationEngine()
        stat = ProcStat({0: SharedCore(eng, 0)}, owner="app")
        with pytest.raises(ValueError, match=r"must be >= 0, got -1\.0"):
            LBDatabase(stat, state_bytes={("a", 0): -1.0})
        with pytest.raises(ValueError, match=r"must be finite, got inf"):
            LBDatabase(stat, state_bytes={("a", 0): math.inf})
        with pytest.raises(
            ValueError,
            match=r"^negative comm volume -5\.0 to \('a', 1\) on \('a', 0\)$",
        ):
            LBDatabase(stat, comm={("a", 0): {("a", 1): -5.0}})
        with pytest.raises(ValueError, match=r"must be finite, got inf"):
            LBDatabase(stat, comm={("a", 0): {("a", 1): math.inf}})

    def test_view_records_are_chare_ordered_per_core(self):
        eng, cores, db = self._setup()
        mapping = {("b", 0): 1, ("a", 2): 0, ("a", 0): 1, ("a", 1): 0}
        view = db.build_view(mapping)
        assert [t.chare for t in view.core(0).tasks] == [("a", 1), ("a", 2)]
        assert [t.chare for t in view.core(1).tasks] == [("a", 0), ("b", 0)]
        assert view.core(1).tasks[0] == TaskRecord(("a", 0), 0.0, 100.0, ())


class TestSharedWindowSnapshots:
    """``reset_window`` re-baselines from the snapshots ``build_view`` took
    when they are of the current simulated time."""

    MAPPING = {("a", 0): 0, ("a", 1): 1}

    def _contended(self):
        """Core 0 shared by an app process and an intruder until t=8."""
        eng = SimulationEngine()
        cores = {0: SharedCore(eng, 0), 1: SharedCore(eng, 1)}
        stat = ProcStat(cores, owner="app")
        cores[0].dispatch(SimProcess("t", 4.0, owner="app"))
        cores[0].dispatch(SimProcess("x", 4.0, owner="other"))
        return eng, stat

    @staticmethod
    def _count_snapshots(stat):
        taken = []
        real = stat.snapshot_all

        def counting():
            taken.append(None)
            return real()

        stat.snapshot_all = counting
        return taken

    @classmethod
    def _window(cls, db, cpu):
        db.record_task(("a", 0), cpu)
        return db.build_view(cls.MAPPING)

    def test_reset_right_after_a_view_reads_the_counters_once(self):
        eng, stat = self._contended()
        db = LBDatabase(stat)
        eng.run(until=2.0)
        taken = self._count_snapshots(stat)
        self._window(db, 1.0)
        db.reset_window()
        assert len(taken) == 1
        # the next window starts from what fresh snapshots give now
        fresh = LBDatabase(stat)
        eng.run(until=4.0)
        assert self._window(db, 1.0) == self._window(fresh, 1.0)

    def test_reset_after_the_clock_moved_takes_new_snapshots(self):
        eng, stat = self._contended()
        db = LBDatabase(stat)
        eng.run(until=2.0)
        self._window(db, 1.0)
        eng.run(until=3.0)
        taken = self._count_snapshots(stat)
        db.reset_window()
        assert len(taken) == 1
        never_shared = LBDatabase(stat)
        eng.run(until=4.0)
        view, ref = self._window(db, 0.5), self._window(never_shared, 0.5)
        assert view.window == ref.window == 1.0
        assert view.core(0).bg_load == ref.core(0).bg_load == pytest.approx(0.5)
        assert view == ref
