"""Live sweep monitoring: a TTY renderer over the progress event stream.

``repro sweep`` already narrates itself as ``"schema": 1`` JSON events
(:mod:`repro.experiments.progress`); this module turns that stream into
a live view — per-worker state, throughput, ETA, cache hit rate — in
two modes:

* ``repro watch FILE`` replays (or, with ``--follow``, tails) a
  ``--jsonl`` progress file written by a sweep in another process;
* ``repro sweep --live`` attaches the renderer in-process via the
  :class:`~repro.experiments.progress.EventLog` ``on_event`` hook.

Either way the engine hot path is untouched: the renderer only ever
*consumes* events the sweep already emits (observation is opt-in and
strictly read-only). Unknown event types and unknown fields are
ignored, so the renderer keeps working against streams from newer code.

:class:`WatchRenderer` itself is pure state + string rendering (feed
events in, ask for a frame), which is what makes live monitoring
testable from a replayed event list with no engine, no TTY and no
clock.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, TextIO, Union

from repro.experiments.progress import parse_progress_line
from repro.util import left_sum

__all__ = ["WatchRenderer", "replay", "watch_file", "LiveWatch"]

_BAR_WIDTH = 32


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"


class WatchRenderer:
    """Folds progress events into a renderable monitoring state.

    Feed every event (dict) to :meth:`feed`; :meth:`render` returns the
    current multi-line frame. Events with unrecognised types — and any
    fields a known event carries beyond the ones used here — are ignored
    (forward compatibility with additive schema changes).
    """

    def __init__(self) -> None:
        self.spec: str = "?"
        self.total: int = 0
        self.workers: int = 0
        self.started_cached: int = 0
        self.done: int = 0
        self.cached: int = 0
        self.executed: int = 0
        self.in_flight: List[str] = []  # labels started but not done
        self.last_by_worker: Dict[str, str] = {}
        self.count_by_worker: Dict[str, int] = {}
        self.recent: List[str] = []  # most recent completions, newest last
        self.walls: List[float] = []  # executed per-point wall times
        self.walls_by_worker: Dict[str, List[float]] = {}
        self._done_ids: set = set()  # keys already counted as done
        self.last_t: float = 0.0
        self.final_metrics: Optional[Dict[str, Any]] = None
        self.run_id: Optional[str] = None

    # ------------------------------------------------------------------
    def feed(self, event: Mapping[str, Any]) -> None:
        """Fold one progress event into the state (unknown -> no-op)."""
        t = event.get("t")
        if isinstance(t, (int, float)):
            self.last_t = float(t)
        kind = event.get("event")
        if kind == "sweep_start":
            self.spec = str(event.get("spec", "?"))
            self.total = int(event.get("points", 0) or 0)
            self.workers = int(event.get("workers", 0) or 0)
            self.started_cached = int(event.get("cached", 0) or 0)
        elif kind == "point_start":
            label = str(event.get("label", "?"))
            if label not in self.in_flight:
                self.in_flight.append(label)
        elif kind == "point_done":
            label = str(event.get("label", "?"))
            if label in self.in_flight:
                self.in_flight.remove(label)
            # progress counts unique points: 'sweep --jsonl' appends, so
            # a re-run's events follow the first run's in one file; the
            # per-worker stats below keep counting actual executions
            point_id = str(event.get("key") or label)
            first_completion = point_id not in self._done_ids
            self._done_ids.add(point_id)
            if first_completion:
                self.done += 1
            worker = str(event.get("worker", "?"))
            if event.get("cached"):
                if first_completion:
                    self.cached += 1
            else:
                self.executed += 1
                wall = event.get("wall_s")
                if isinstance(wall, (int, float)):
                    self.walls.append(float(wall))
                    self.walls_by_worker.setdefault(worker, []).append(
                        float(wall)
                    )
                self.last_by_worker[worker] = label
                self.count_by_worker[worker] = (
                    self.count_by_worker.get(worker, 0) + 1
                )
            if event.get("cached"):
                self.recent.append(f"{label} [cache]")
            else:
                wall = event.get("wall_s") or 0
                self.recent.append(f"{label} [{worker} {wall:.2f}s]")
            del self.recent[:-5]
        elif kind == "sweep_done":
            self.final_metrics = {
                k: event.get(k)
                for k in (
                    "points", "executed", "cache_hits", "hit_rate",
                    "elapsed_s", "worker_utilization",
                )
            }
        elif kind == "run_registered":
            run_id = event.get("run_id")
            if isinstance(run_id, str):
                self.run_id = run_id
        # anything else: a newer event type — deliberately ignored

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.final_metrics is not None

    def throughput(self) -> Optional[float]:
        """Completed points per second of stream time (None before any)."""
        if self.done == 0 or self.last_t <= 0:
            return None
        return self.done / self.last_t

    def worker_throughput(self) -> Dict[str, float]:
        """Executed points per busy-second, per worker.

        Derived purely from ``point_done`` wall times, so it is exact
        for interleaved multi-worker streams (per-worker busy time is
        unaffected by the interleaving). Workers with no positive wall
        time yet are omitted.
        """
        rates: Dict[str, float] = {}
        for worker, walls in self.walls_by_worker.items():
            busy = left_sum(walls)
            if busy > 0:
                rates[worker] = len(walls) / busy
        return rates

    def eta_s(self) -> Optional[float]:
        """Estimated seconds to finish the remaining points."""
        remaining = self.total - self.done
        if remaining <= 0 or not self.walls:
            return None
        mean_wall = left_sum(self.walls) / len(self.walls)
        pool = max(1, self.workers)
        return remaining * mean_wall / pool

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The current monitoring frame (no ANSI — plain lines)."""
        lines: List[str] = []
        total = max(self.total, self.done)
        frac = (self.done / total) if total else 0.0
        filled = int(round(frac * _BAR_WIDTH))
        bar = "#" * filled + "-" * (_BAR_WIDTH - filled)
        lines.append(
            f"sweep {self.spec} — {self.done}/{total or '?'} points "
            f"({self.cached} cached) workers={self.workers or '?'}"
        )
        lines.append(f"  [{bar}] {100.0 * frac:5.1f}%  t={self.last_t:.2f}s")
        rate = self.throughput()
        lines.append(
            "  throughput: "
            + (f"{rate:.2f} points/s" if rate is not None else "-")
            + "   eta: "
            + _fmt_eta(self.eta_s() if not self.finished else 0.0)
        )
        if self.in_flight:
            lines.append("  running: " + ", ".join(self.in_flight[:4]))
        rates = self.worker_throughput()
        for worker in sorted(self.last_by_worker):
            line = (
                f"  {worker}: {self.count_by_worker.get(worker, 0)} done, "
                f"last {self.last_by_worker[worker]}"
            )
            if worker in rates:
                line += f" ({rates[worker]:.2f}/s)"
            lines.append(line)
        if self.recent:
            lines.append("  recent: " + "; ".join(self.recent[-3:]))
        if self.final_metrics is not None:
            m = self.final_metrics
            hit = m.get("hit_rate")
            util = m.get("worker_utilization")
            lines.append(
                f"  done: executed={m.get('executed')} "
                f"cache_hits={m.get('cache_hits')}"
                + (f" ({100.0 * hit:.0f}%)" if isinstance(hit, (int, float)) else "")
                + (
                    f" elapsed={m.get('elapsed_s'):.2f}s"
                    if isinstance(m.get("elapsed_s"), (int, float))
                    else ""
                )
                + (
                    f" utilization={100.0 * util:.0f}%"
                    if isinstance(util, (int, float))
                    else ""
                )
            )
        if self.run_id:
            lines.append(f"  registered as run {self.run_id}")
        return "\n".join(lines)


def replay(events: Iterable[Mapping[str, Any]]) -> WatchRenderer:
    """Feed a whole event sequence; returns the final renderer state."""
    renderer = WatchRenderer()
    for event in events:
        renderer.feed(event)
    return renderer


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def watch_file(
    path: Union[str, Path],
    *,
    out: Optional[TextIO] = None,
    follow: bool = False,
    interval: float = 0.5,
    timeout_s: Optional[float] = None,
    require_finished: bool = False,
) -> int:
    """Render a progress JSONL file; returns an exit code.

    Without ``follow`` the existing file is replayed and one final frame
    printed. With ``follow`` the file is tailed (new lines rendered as
    they land) until a ``sweep_done`` event, EOF-after-timeout, or
    Ctrl-C. Malformed lines are skipped — a live writer may be mid-line.
    ``require_finished`` (the CLI's ``--replay``) makes an incomplete
    stream — no ``sweep_done`` — exit 1 instead of 0, so CI can assert
    a recorded sweep actually ran to completion.
    """
    out = out if out is not None else sys.stdout
    p = Path(path)
    if not p.is_file():
        print(f"repro watch: error: no progress file at {p}", file=sys.stderr)
        return 1
    renderer = WatchRenderer()
    is_tty = hasattr(out, "isatty") and out.isatty()
    waited = 0.0

    def paint() -> None:
        frame = renderer.render()
        if is_tty:
            out.write("\x1b[2J\x1b[H" + frame + "\n")
        else:
            out.write(frame + "\n")
        out.flush()

    try:
        with open(p) as fh:
            while True:
                line = fh.readline()
                if line:
                    waited = 0.0
                    try:
                        event = parse_progress_line(line)
                    except ValueError:
                        continue  # partial/foreign line
                    if event is not None:
                        renderer.feed(event)
                        if follow:
                            paint()
                    continue
                if not follow or renderer.finished:
                    break
                if timeout_s is not None and waited >= timeout_s:
                    break
                time.sleep(interval)
                waited += interval
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    paint()
    if require_finished and not renderer.finished:
        print(
            f"repro watch: error: {p} has no sweep_done event "
            f"({renderer.done} point(s) recorded) — the sweep did not finish",
            file=sys.stderr,
        )
        return 1
    return 0


class LiveWatch:
    """In-process live monitor: an ``EventLog.on_event`` callback.

    Repaints the frame on every event — sweeps emit a handful of events
    per point, so repaint cost is negligible next to simulation. On a
    TTY each frame redraws in place; on a pipe only *final* state is
    printed (one frame at ``sweep_done``) to keep logs readable.
    """

    def __init__(self, out: Optional[TextIO] = None) -> None:
        self.out = out if out is not None else sys.stderr
        self.renderer = WatchRenderer()
        self._is_tty = hasattr(self.out, "isatty") and self.out.isatty()
        self._painted_lines = 0

    def on_event(self, event: Mapping[str, Any]) -> None:
        self.renderer.feed(event)
        if self._is_tty:
            self._repaint()
        elif self.renderer.finished:
            self.out.write(self.renderer.render() + "\n")
            self.out.flush()

    def _repaint(self) -> None:
        frame = self.renderer.render()
        if self._painted_lines:
            # move up and clear the previous frame, then redraw
            self.out.write(f"\x1b[{self._painted_lines}F\x1b[J")
        self.out.write(frame + "\n")
        self.out.flush()
        self._painted_lines = frame.count("\n") + 1
