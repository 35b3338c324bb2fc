"""Per-layer host-time tracing for the benchmark, applied from outside.

A :class:`Tracer` replaces public functions and methods of ``repro``
with timing wrappers at the place each one is looked up (the module
global its caller reads, or the class attribute), and puts the originals
back on exit. Nothing under ``src/`` knows it is being traced.

Every layer reports *self* time: the time inside its spans minus the
part covered by spans of traced layers it called. Self times therefore
partition the traced wall time, and the root layer's self time
(``sweep``, i.e. ``run_sweep``) is the residual nobody else claimed.

The wrapper's own cost is calibrated on a no-op and subtracted: the
share that falls inside a span from that layer, and the share that
falls between spans from the caller's self time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> (module, attribute path, optional item counter) to wrap. An
#: attribute path ``Class.method`` patches the class that defines it.
LAYERS: Dict[str, Tuple[Tuple[str, str, Optional[Callable]], ...]] = {
    "sweep": (("repro.experiments.sweep", "run_sweep", None),),
    "sweep.build": (("repro.experiments.sweep", "build_scenario", None),),
    "sweep.summarize": (("repro.experiments.sweep", "summarize_result", None),),
    "cache.get": (
        ("repro.experiments.cache", "ResultCache.get", None),
        ("repro.experiments.cache", "ResultCache.get_extras", None),
    ),
    "cache.put": (("repro.experiments.cache", "ResultCache.put", None),),
    "runner.run_scenario": (("repro.experiments.sweep", "run_scenario", None),),
    "fastpath.run": (("repro.sim.fastpath", "run_scenario_fast", None),),
    "engine.run": (("repro.sim.engine", "SimulationEngine.run", None),),
    "apps.work": (
        ("repro.apps.stencil", "StencilStripChare.work", None),
        ("repro.apps.mol3d", "MDCellChare.work", None),
    ),
    "database.view_build": (("repro.core.database", "LBDatabase.build_view", None),),
    "balancer.balance": (("repro.core.balancer", "LoadBalancer.balance", None),),
    # bound by name in both the event runtime and the fast path
    "runtime.migrate": (
        ("repro.runtime.runtime", "apply_migrations", lambda args: len(args[0])),
        ("repro.sim.fastpath", "apply_migrations", lambda args: len(args[0])),
    ),
    "procstat.snapshot": (("repro.sim.procstat", "ProcStat.snapshot_all", None),),
    "ledger.hook": tuple(
        ("repro.obs.ledger", f"TimeLedger.{m}", None)
        for m in ("mark_iteration", "mark_pause", "accrue", "accrue_app", "close", "summary")
    ),
    "lineage.hook": tuple(
        ("repro.obs.lineage", f"LineageRecorder.{m}", None)
        for m in (
            "record_placement", "mark_iteration", "record_sample",
            "record_lb_step", "close", "payload",
        )
    ),
    "telemetry.audit_write": (("repro.experiments.sweep", "write_audit_jsonl", None),),
    "projections.chrome_trace": (("repro.experiments.sweep", "write_chrome_trace", None),),
}

#: layers whose self time is the simulation core (fold/event replay on
#: the fast path, event loop and scheduler on the engine)
SIM_LAYERS = ("runner.run_scenario", "fastpath.run", "engine.run")


class LayerStat:
    """Accumulated spans of one layer (raw, before calibration)."""

    __slots__ = ("self_s", "calls", "child_calls", "items")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.child_calls = 0
        self.items = 0


def _resolve(module: str, path: str):
    """``(owner, attribute name)`` for a dotted ``Class.attr`` or ``attr``."""
    owner = importlib.import_module(module)
    *classes, name = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if name not in vars(owner):
        raise AttributeError(f"{module}.{path} is not defined where it is looked up")
    return owner, name


class Tracer:
    """Wraps every layer in :data:`LAYERS` while used as a context manager."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {name: LayerStat() for name in LAYERS}
        self._inner = 0.0  # span time of children of the open span
        self._kids = 0  # child calls of the open span
        self._patched: List[Tuple[object, str, object]] = []
        # per-call wrapper cost inside a span / between spans (seconds)
        self.cost_in = 0.0
        self.cost_out = 0.0

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, stat: LayerStat, items: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one span of the layer ``stat`` accumulates."""
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            saved_inner, saved_kids = tracer._inner, tracer._kids
            tracer._inner = 0.0
            tracer._kids = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - tracer._inner
                stat.calls += 1
                stat.child_calls += tracer._kids
                if items is not None:
                    stat.items += items(args)
                tracer._inner = saved_inner + dt
                tracer._kids = saved_kids + 1

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        self.calibrate()
        try:
            for name, targets in LAYERS.items():
                for module, path, items in targets:
                    owner, attr = _resolve(module, path)
                    original = vars(owner)[attr]
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(original, self.stats[name], items))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def calibrate(self) -> None:
        """Measure the wrapper's per-call cost on a no-op (median of 5 runs)."""

        def noop(a, b):  # shaped like ``Chare.work(self, iteration)``
            return None

        clock = time.perf_counter
        n = 20000
        ins, outs = [], []
        for _ in range(5):
            loop = range(n)
            t0 = clock()
            for i in loop:
                noop(None, i)
            plain = (clock() - t0) / n
            stat = LayerStat()
            wrapped = self.wrap(noop, stat)
            t0 = clock()
            for i in loop:
                wrapped(None, i)
            traced = (clock() - t0) / n
            self._inner, self._kids = 0.0, 0
            # the no-op's own call cost is real work a caller pays
            # unwrapped too; only the excess is wrapper cost
            cost_in = max(stat.self_s / n - plain, 0.0)
            ins.append(cost_in)
            outs.append(max(traced - plain - cost_in, 0.0))
        self.cost_in = statistics.median(ins)
        self.cost_out = statistics.median(outs)

    def self_times(self) -> Dict[str, float]:
        """Calibrated self time per layer (seconds, never below 0)."""
        return {
            name: max(
                s.self_s - s.calls * self.cost_in - s.child_calls * self.cost_out,
                0.0,
            )
            for name, s in self.stats.items()
        }
