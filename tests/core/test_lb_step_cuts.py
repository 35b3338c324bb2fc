"""What an LB step computes once: the per-core window layout, the stored
core sums, the donor-only task ordering and the empty-decision shortcut.

Each cut must leave the step's outputs as they were:

* a view built from :class:`LBDatabase`'s per-core layout equals one
  built the way the database used to build it (one sort of every chare
  key, per-chare dict lookups), on random mappings with empty cores and
  after a layout refresh that follows migrations;
* ``CoreLoad.task_time`` is the ``left_sum`` of its tasks' CPU times on
  public construction, and survives pickling;
* Algorithm 1 sorting only the task lists of cores it pops as donors
  returns exactly the migrations and audit candidates of the eager
  algorithm, which sorted every core's list up front (kept below as a
  reference copy);
* ``validate_migrations`` accepts an empty list at once and still
  rejects each kind of bad non-empty list.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommAwareRefineLB,
    CoreLoad,
    LBDatabase,
    LBView,
    Migration,
    RefineLB,
    RefineVMInterferenceLB,
    TaskRecord,
)
from repro.core.database import validate_migrations
from repro.sim import SharedCore, SimulationEngine
from repro.sim.procstat import ProcStat
from repro.telemetry import AuditTrail
from repro.util import left_sum
from tests.core.test_refine_properties import epsilons, lb_views


# ----------------------------------------------------------------------
# the per-core layout
# ----------------------------------------------------------------------
def _reference_view(procstat, window_start, task_cpu, mapping, state_bytes, comm):
    """The view as the database built it before the per-core layout: one
    sort of every chare key, per-chare lookups into a chare-keyed dict."""
    snaps = procstat.snapshot_all()
    per_core = {cid: [] for cid in procstat.core_ids()}
    for chare in sorted(mapping):
        per_core[mapping[chare]].append(
            TaskRecord(
                chare,
                task_cpu.get(chare, 0.0),
                state_bytes.get(chare, 0.0),
                tuple(sorted(comm.get(chare, {}).items())),
            )
        )
    cores = []
    window = 0.0
    for cid in procstat.core_ids():
        delta = snaps[cid].delta(window_start[cid])
        window = max(window, delta.time)
        tasks = tuple(per_core[cid])
        bg = ProcStat.background_load(delta, left_sum([t.cpu_time for t in tasks]))
        cores.append(CoreLoad(cid, tasks, bg))
    return LBView(cores=tuple(cores), window=window)


cpu_times = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@st.composite
def windows(draw):
    """A job of 1-6 cores (some left empty), chares of two arrays mapped
    at random, a sequence of task completions, and a migrated mapping."""
    n_cores = draw(st.integers(min_value=1, max_value=6))
    n_chares = draw(st.integers(min_value=0, max_value=20))
    chares = [("b" if i % 3 == 0 else "a", i) for i in range(n_chares)]
    cores = st.integers(min_value=0, max_value=n_cores - 1)
    mapping = {k: draw(cores) for k in chares}
    moved = {k: draw(cores) for k in chares}
    state_bytes = {k: float(draw(st.integers(0, 4096))) for k in chares}
    comm = {}
    for k in chares:
        partners = draw(st.lists(st.sampled_from(chares), max_size=3)) if chares else []
        comm[k] = {p: 8.0 * (1 + p[1]) for p in partners if p != k}
    completions = draw(
        st.lists(st.tuples(st.sampled_from(chares), cpu_times), max_size=40)
        if chares
        else st.just([])
    )
    return n_cores, mapping, moved, state_bytes, comm, completions


def _record(db, mapping, chare, cpu, *, in_place):
    """Add one task's CPU time by chare, or at its position in its core's
    window list, the way the fast path does."""
    if in_place:
        keys, cpus = db.core_window(mapping[chare])
        cpus[keys.index(chare)] += cpu
    else:
        db.record_task(chare, cpu)


@given(windows(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_layout_view_equals_the_sorted_key_view(case, in_place):
    n_cores, mapping, moved, state_bytes, comm, completions = case
    eng = SimulationEngine()
    cores = {cid: SharedCore(eng, cid) for cid in range(n_cores)}
    stat = ProcStat(cores, owner="app")
    db = LBDatabase(stat, state_bytes, comm=comm)
    db.layout(mapping)
    window_start = stat.snapshot_all()

    half = len(completions) // 2
    task_cpu = {}
    for chare, cpu in completions[:half]:
        _record(db, mapping, chare, cpu, in_place=in_place)
        task_cpu[chare] = task_cpu.get(chare, 0.0) + cpu
    eng.run(until=1.0)
    view = db.build_view(mapping)
    assert view == _reference_view(
        stat, window_start, task_cpu, mapping, state_bytes, comm
    )
    assert [c.task_time for c in view.cores] == [
        left_sum([t.cpu_time for t in c.tasks]) for c in view.cores
    ]

    # an LB step that migrated: the mapping changes in place, the window
    # resets and is laid out anew; lists handed out before are stale
    mapping.update(moved)
    db.reset_window()
    db.layout(mapping)
    window_start = stat.snapshot_all()
    task_cpu = {}
    for chare, cpu in completions[half:]:
        _record(db, mapping, chare, cpu, in_place=in_place)
        task_cpu[chare] = task_cpu.get(chare, 0.0) + cpu
    eng.run(until=2.5)
    assert db.build_view(mapping) == _reference_view(
        stat, window_start, task_cpu, mapping, state_bytes, comm
    )


def test_layout_rejects_a_core_outside_the_job():
    eng = SimulationEngine()
    stat = ProcStat({0: SharedCore(eng, 0), 1: SharedCore(eng, 1)}, owner="app")
    db = LBDatabase(stat)
    with pytest.raises(
        ValueError, match=r"^chare \('a', 3\) mapped to core 5 outside the job$"
    ):
        db.layout({("a", 0): 1, ("a", 3): 5})


def test_layout_carries_recorded_cpu_and_core_window_is_the_window():
    eng = SimulationEngine()
    stat = ProcStat({0: SharedCore(eng, 0), 1: SharedCore(eng, 1)}, owner="app")
    db = LBDatabase(stat, state_bytes={("a", 1): 64.0})
    db.record_task(("a", 1), 0.5)  # before any layout
    mapping = {("a", 1): 1, ("a", 0): 1, ("a", 2): 0}
    db.layout(mapping)
    keys, cpus = db.core_window(1)
    assert keys == [("a", 0), ("a", 1)] and cpus == [0.0, 0.5]
    cpus[0] += 0.25  # in place, as the fast path adds
    db.record_task(("a", 1), 0.125)
    mapping[("a", 0)] = 0  # moved mid-window: its CPU moves with it
    db.layout(mapping)
    view = db.build_view(mapping)
    assert view.core(0).tasks == (
        TaskRecord(("a", 0), 0.25), TaskRecord(("a", 2), 0.0)
    )
    assert view.core(1).tasks == (TaskRecord(("a", 1), 0.625, 64.0),)
    assert (view.core(0).task_time, view.core(1).task_time) == (0.25, 0.625)
    db.reset_window()
    assert db.core_window(0)[1] == [0.0, 0.0]
    with pytest.raises(KeyError):
        db.core_window(7)


def test_set_state_bytes_reaches_the_laid_out_window():
    eng = SimulationEngine()
    stat = ProcStat({0: SharedCore(eng, 0)}, owner="app")
    db = LBDatabase(stat, state_bytes={("a", 0): 8.0})
    mapping = {("a", 0): 0, ("a", 1): 0}
    db.layout(mapping)
    db.set_state_bytes(("a", 1), 32.0)
    db.set_state_bytes(("a", 9), 4.0)  # not laid out: kept for later
    assert [t.state_bytes for t in db.build_view(mapping).core(0).tasks] == [
        8.0, 32.0,
    ]
    mapping[("a", 9)] = 0
    db.layout(mapping)
    assert db.build_view(mapping).core(0).tasks[-1] == TaskRecord(("a", 9), 0.0, 4.0)


# ----------------------------------------------------------------------
# CoreLoad.task_time
# ----------------------------------------------------------------------
@given(st.lists(cpu_times, max_size=12), cpu_times)
def test_core_load_task_time_is_the_left_sum_of_its_tasks(times, bg):
    tasks = tuple(TaskRecord(("a", i), t) for i, t in enumerate(times))
    core = CoreLoad(4, tasks, bg)
    assert core.task_time == left_sum([t.cpu_time for t in tasks])
    assert type(core.task_time) is type(left_sum([t.cpu_time for t in tasks]))
    assert core.total_load == core.task_time + bg
    assert CoreLoad(core_id=4, tasks=tasks, bg_load=bg) == core
    back = pickle.loads(pickle.dumps(core, protocol=pickle.HIGHEST_PROTOCOL))
    assert back == core and back.task_time == core.task_time
    assert type(back) is CoreLoad


def test_core_load_task_time_of_no_tasks_is_the_empty_left_sum():
    assert CoreLoad(0, ()).task_time == left_sum([]) == 0
    with pytest.raises(ValueError, match=r"^task_time must be >= 0, got -1\.0$"):
        CoreLoad(0, (), 0.0, -1.0)


# ----------------------------------------------------------------------
# donor-only ordering in Algorithm 1
# ----------------------------------------------------------------------
def _eager_decide(lb, view):
    """Algorithm 1 as it was: every core's task list sorted biggest-first
    before the first pop, receivers' lists appended to."""
    t_avg = lb._t_avg(view)
    eps = lb._eps(t_avg)
    load, tasks, location = {}, {}, {}
    for c in view.cores:
        load[c.core_id] = lb._core_load(c.task_time, c.bg_load)
        tasks[c.core_id] = sorted(c.tasks, key=lambda t: (-t.cpu_time, t.chare))
        for t in c.tasks:
            location[t.chare] = c.core_id
    overheap, underset = lb._classify(view, load, t_avg, eps)
    migrations = []
    while len(overheap) > 0:
        donor, _ = overheap.pop()
        best = lb._best_core_and_task(
            donor, tasks[donor], load, underset, t_avg, eps, location=location
        )
        if best is None:
            continue
        task, dest = best
        migrations.append(Migration(chare=task.chare, src=donor, dst=dest))
        tasks[donor].remove(task)
        tasks[dest].append(task)
        location[task.chare] = dest
        load[donor] -= task.cpu_time
        load[dest] += task.cpu_time
        if load[donor] - t_avg > eps:
            overheap.push(donor, load[donor])
        elif t_avg - load[donor] > eps:
            underset[donor] = True
        if not (t_avg - load[dest] > eps):
            underset.pop(dest, None)
    return migrations


def _eager_candidates(lb, view):
    lb._step_candidates = []
    try:
        migrations = _eager_decide(lb, view)
    finally:
        candidates, lb._step_candidates = lb._step_candidates, None
    return migrations, candidates


@st.composite
def comm_views(draw):
    """``lb_views`` whose tasks record communication partners."""
    view = draw(lb_views())
    chares = [t.chare for c in view.cores for t in c.tasks]
    cores = []
    for c in view.cores:
        tasks = []
        for t in c.tasks:
            partners = draw(st.lists(st.sampled_from(chares), max_size=3))
            comm = tuple(
                sorted({p: float(draw(st.integers(1, 64))) for p in partners
                        if p != t.chare}.items())
            )
            tasks.append(TaskRecord(t.chare, t.cpu_time, t.state_bytes, comm))
        cores.append(CoreLoad(c.core_id, tuple(tasks), c.bg_load))
    return LBView(cores=tuple(cores), window=view.window)


STRATEGIES = {
    "refine-vm": lambda eps: RefineVMInterferenceLB(eps),
    "refine": lambda eps: RefineLB(eps),
    "comm-aware": lambda eps: CommAwareRefineLB(eps),
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@given(view=comm_views(), eps=epsilons, absolute=st.booleans())
@settings(max_examples=150, deadline=None)
def test_donor_only_ordering_equals_the_eager_algorithm(name, view, eps, absolute):
    make = STRATEGIES[name]
    lb = make(eps)
    lb.absolute_epsilon = absolute
    trail = AuditTrail()
    lb.attach_audit(trail)
    migrations = lb.balance(view)
    reference = make(eps)
    reference.absolute_epsilon = absolute
    expected, expected_candidates = _eager_candidates(reference, view)
    assert migrations == expected
    assert trail.records[0]["candidates"] == expected_candidates
    lb.attach_audit(None)
    assert lb.decide(view) == expected


# ----------------------------------------------------------------------
# validate_migrations
# ----------------------------------------------------------------------
def _two_core_view():
    return LBView(
        cores=(
            CoreLoad(0, (TaskRecord(("a", 0), 1.0),)),
            CoreLoad(1, (TaskRecord(("a", 1), 2.0),)),
        ),
        window=3.0,
    )


def test_validate_migrations_accepts_an_empty_decision():
    validate_migrations(_two_core_view(), [])
    validate_migrations(LBView(cores=(), window=0.0), [])


@pytest.mark.parametrize(
    "migrations, message",
    [
        ([Migration(("zz", 9), 0, 1)], r"^migration of unknown chare \('zz', 9\)$"),
        (
            [Migration(("a", 0), 1, 0)],
            r"^chare \('a', 0\) is on core 0, not 1$",
        ),
        (
            [Migration(("a", 0), 0, 7)],
            r"^migration targets core 7 outside the job$",
        ),
        (
            [Migration(("a", 0), 0, 1), Migration(("a", 0), 0, 1)],
            r"^chare \('a', 0\) migrated twice in one step$",
        ),
        (
            [Migration(("a", 1), 1, 0), Migration(("zz", 9), 0, 1)],
            r"^migration of unknown chare \('zz', 9\)$",
        ),
    ],
    ids=["unknown-chare", "wrong-source", "outside-the-job", "twice", "second-bad"],
)
def test_validate_migrations_rejects_each_bad_decision(migrations, message):
    with pytest.raises(ValueError, match=message):
        validate_migrations(_two_core_view(), migrations)
