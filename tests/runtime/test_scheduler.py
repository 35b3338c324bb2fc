"""Unit tests for the per-core message scheduler."""

import pytest

from repro.runtime.messages import ComputeMsg
from repro.runtime.scheduler import CoreScheduler
from repro.sim import SharedCore, SimulationEngine


def make_sched(work=1.0):
    eng = SimulationEngine()
    core = SharedCore(eng, 0)
    done, drains = [], []
    sched = CoreScheduler(
        core,
        owner="app",
        weight=1.0,
        work_of=lambda msg: work,
        on_task_done=lambda msg, proc: done.append((msg, proc)),
        on_drain=lambda: drains.append(eng.now),
    )
    return eng, core, sched, done, drains


def test_executes_fifo_one_at_a_time():
    eng, core, sched, done, drains = make_sched(work=1.0)
    for i in range(3):
        sched.enqueue(ComputeMsg(chare=("a", i), iteration=0))
    assert sched.busy
    assert sched.queued == 2
    eng.run()
    assert [msg.chare for msg, _ in done] == [("a", 0), ("a", 1), ("a", 2)]
    # strictly sequential: completions at 1, 2, 3
    assert [p.completed_at for _, p in done] == pytest.approx([1.0, 2.0, 3.0])
    assert drains == [3.0]


def test_enqueue_while_running_extends_queue():
    eng, core, sched, done, drains = make_sched(work=2.0)
    sched.enqueue(ComputeMsg(chare=("a", 0), iteration=0))
    eng.schedule_after(1.0, sched.enqueue, ComputeMsg(chare=("a", 1), iteration=0))
    eng.run()
    assert len(done) == 2
    assert drains == [4.0]


def test_drain_fires_per_batch():
    eng, core, sched, done, drains = make_sched(work=1.0)
    sched.enqueue(ComputeMsg(chare=("a", 0), iteration=0))
    eng.run()
    sched.enqueue(ComputeMsg(chare=("a", 1), iteration=1))
    eng.run()
    assert drains == [1.0, 2.0]


def test_interference_stretches_wall_not_cpu():
    eng = SimulationEngine()
    core = SharedCore(eng, 0)
    done = []
    sched = CoreScheduler(
        core,
        owner="app",
        weight=1.0,
        work_of=lambda msg: 2.0,
        on_task_done=lambda msg, proc: done.append(proc),
        on_drain=lambda: None,
    )
    from repro.sim import SimProcess

    core.dispatch(SimProcess("hog", 100.0, owner="bg"))
    sched.enqueue(ComputeMsg(chare=("a", 0), iteration=0))
    eng.run(until=10.0)
    proc = done[0]
    assert proc.cpu_time == pytest.approx(2.0)  # instrumented CPU time
    assert proc.completed_at == pytest.approx(4.0)  # stretched wall time


def test_task_process_is_identified_by_owner_and_key():
    eng, core, sched, done, drains = make_sched(work=1.0)
    sched.enqueue(ComputeMsg(chare=("a", 7), iteration=3))
    eng.run()
    (_, proc), = done
    assert (proc.name, proc.owner, proc.key) == ("app", "app", ("a", 7))
    assert "owner='app'" in repr(proc) and "key=('a', 7)" in repr(proc)
