"""Time-attribution ledger: every simulated core-second, accounted.

The stack measures end-to-end wall time and energy but — before this
module — could not say *where* a run's time went: how much of each core's
clock was application compute, how much was stolen by proportional-share
interference, how much was the LB pause (decision + migration transfer),
and how much was barrier/communication idle. :class:`TimeLedger`
decomposes every app core's wall clock into exactly those four buckets,
per core, per iteration and per chare, under a hard **conservation
invariant**: the buckets sum *bit-exactly* to ``wall x cores``.

Exactness
---------
Bit-exact conservation of separately accumulated IEEE-754 sums is
impossible (per-bucket fold order differs from a single accumulator), so
the ledger does not accumulate floats. Every simulated timestamp is a
float, and every finite float is an integer multiple of the float64
quantum ``2**-1074``; so is any difference of two floats. The ledger
therefore converts each interval end to an exact integer count of quanta
(:func:`quanta`) and keeps every accumulator as a Python ``int`` over
one denominator shared by the whole ledger, ``D = 2**1074 * M``. ``M``
is the lcm of the weight-share denominators (``w/total_w``,
``w/app_w``) seen so far: a share ``p/q`` with ``q | M`` scales an
interval of ``n`` quanta to exactly ``n * p * (M // q)`` units. A share
whose denominator does not divide ``M`` grows ``M`` and rescales every
accumulator once by the integer factor, so nothing is ever rounded. The
shares are derived once per distinct weight combination (a run has a
handful), and the per-interval work is integer addition and
multiplication only.

Intervals are required to tile each core's timeline with no gap or
overlap (:class:`LedgerError` otherwise), and integer arithmetic is
associative — so conservation holds by telescoping, and the event engine
and the fast path produce **identical** ledgers even though they
subdivide the timeline differently (per scheduling change vs. per task).
:meth:`TimeLedger.totals_exact`, :meth:`TimeLedger.busy_exact` and
:meth:`TimeLedger.residual_exact` return ``fractions.Fraction`` values
(``n / D``, reduced). :meth:`TimeLedger.summary` divides the integers
directly: Python's ``int / int`` is correctly rounded, so each float is
the one ``float(Fraction(n, D))`` gives.

Bucket semantics
----------------
``compute``
    The job's proportional-share occupancy: ``dt * w_app / w_total``
    over every interval where one of its tasks is runnable.
``stolen``
    The complement on those same intervals — wall time the co-runners'
    shares took from the job (zero when the job runs alone).
``overhead``
    Wall time inside an LB pause window (decision overhead + migration
    transfer) with no app task runnable.
``idle``
    Everything else: barrier wait, communication gaps, pre-launch time,
    and background-only stretches.

The ledger additionally tracks how much of ``overhead``/``idle`` wall
time the core was *busy* with other jobs — the split the energy
decomposition (:func:`repro.power.meter.decompose_energy`) attributes
dynamic joules by.

The null-hook doctrine applies: backends carry a ``ledger`` attribute
that defaults to ``None`` and is checked once per accrual; with no
ledger attached nothing is computed and summaries are byte-identical to
ledger-free builds.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LEDGER_SCHEMA",
    "BUCKETS",
    "QUANTUM_BITS",
    "LedgerError",
    "TimeLedger",
    "format_ledger_text",
    "quanta",
]

#: Version stamp carried by every ledger summary.
LEDGER_SCHEMA = 1

#: Bucket names, in reporting order.
BUCKETS = ("compute", "stolen", "overhead", "idle")

#: Every finite float is an integer multiple of ``2**-QUANTUM_BITS``.
QUANTUM_BITS = 1074

_COMPUTE, _STOLEN, _OVERHEAD, _IDLE = range(4)

ChareKey = Tuple[str, int]

#: Per-interval multipliers of one weight combination at the current
#: ``M``: ``(compute, stolen, ((chare compute, chare stolen), ...))``.
_Shares = Tuple[int, int, Tuple[Tuple[int, int], ...]]


def quanta(x: float) -> int:
    """``x`` as an exact integer count of float quanta (``2**-1074``).

    ``as_integer_ratio`` returns a power-of-two denominator ``2**k``
    with ``k <= 1074`` for every finite float, so the shift is exact.
    """
    n, d = x.as_integer_ratio()
    return n << (QUANTUM_BITS + 1 - d.bit_length())


class LedgerError(RuntimeError):
    """A ledger invariant was violated (gap, overlap, or misuse)."""


class TimeLedger:
    """Exact per-core/per-iteration/per-chare wall-clock attribution.

    Parameters
    ----------
    job:
        Owner tag of the attributed job (processes with this owner are
        "app"; everything else is a co-runner).
    core_ids:
        The job's cores — the only cores the ledger accounts.

    The simulation side drives four hooks:

    * :meth:`accrue` — one contiguous interval of one core's timeline
      with its (constant) runnable set;
    * :meth:`accrue_app` — fast-path special case: the job's task ``key``
      ran alone for the whole interval (pure compute);
    * :meth:`mark_iteration` / :meth:`mark_pause` — iteration begin
      times and LB pause windows (classification boundaries);
    * :meth:`close` — seal the ledger at job completion; every core
      must be accounted exactly to the closing time.

    Every accumulator is an ``int`` in units of ``1 / (2**1074 * M)``
    seconds (see the module docstring).
    """

    def __init__(self, job: str = "app", core_ids: Sequence[int] = ()) -> None:
        self.job = job
        self.core_ids: Tuple[int, ...] = tuple(sorted(int(c) for c in core_ids))
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ValueError("core_ids contains duplicates")
        self._m = 1
        self._shares: Dict[Tuple[Tuple[float, ...], Tuple[float, ...]], _Shares] = {}
        self._per_core: Dict[int, List[int]] = {
            cid: [0, 0, 0, 0] for cid in self.core_ids
        }
        self._busy_overhead: Dict[int, int] = {cid: 0 for cid in self.core_ids}
        self._busy_idle: Dict[int, int] = {cid: 0 for cid in self.core_ids}
        self._chares: Dict[ChareKey, List[int]] = {}
        self._iters: List[List[int]] = []
        self._marks: List[float] = []
        self._mark_q: List[int] = []
        self._pause_edges: List[float] = []
        self._cursor: Dict[int, float] = {cid: 0.0 for cid in self.core_ids}
        self._cursor_q: Dict[int, int] = {cid: 0 for cid in self.core_ids}
        self.closed_at: Optional[float] = None

    # ------------------------------------------------------------------
    # marks
    # ------------------------------------------------------------------
    def mark_iteration(self, iteration: int, t: float) -> None:
        """Record that ``iteration`` begins at simulated time ``t``."""
        if self.closed_at is not None:
            return
        if iteration != len(self._marks):
            raise LedgerError(
                f"iteration mark {iteration} out of order "
                f"(expected {len(self._marks)})"
            )
        if self._marks and t < self._marks[-1]:
            raise LedgerError("iteration marks must be non-decreasing")
        self._marks.append(t)
        self._mark_q.append(quanta(t))

    def mark_pause(self, t0: float, t1: float) -> None:
        """Record an LB pause window ``[t0, t1)`` (decision + transfer)."""
        if self.closed_at is not None:
            return
        if t1 < t0:
            raise LedgerError(f"pause window ends before it starts: {t0}..{t1}")
        if self._pause_edges and t0 < self._pause_edges[-1]:
            raise LedgerError("pause windows must be ordered and disjoint")
        self._pause_edges.append(t0)
        self._pause_edges.append(t1)

    # ------------------------------------------------------------------
    # accrual
    # ------------------------------------------------------------------
    def _advance(self, core_id: int, t0: float, t1: float) -> Tuple[int, int]:
        """Move ``core_id``'s cursor from ``t0`` to ``t1``; returns the
        two ends in quanta."""
        cur = self._cursor[core_id]
        if t0 != cur:
            raise LedgerError(
                f"core {core_id}: interval starts at {t0!r} but the core "
                f"is accounted to {cur!r} (gap or overlap)"
            )
        self._cursor[core_id] = t1
        q1 = quanta(t1)
        q0 = self._cursor_q[core_id]
        self._cursor_q[core_id] = q1
        return q0, q1

    def accrue(
        self, core_id: int, t0: float, t1: float, procs: Iterable[Any]
    ) -> None:
        """Attribute ``[t0, t1)`` on ``core_id`` given its runnable set.

        ``procs`` is the core's (constant over the interval) runnable
        set; each item exposes ``owner``, ``weight`` and ``key``.
        Intervals must tile the core's timeline contiguously from 0.
        """
        if self.closed_at is not None:
            return
        if t1 <= t0:
            return
        q0, q1 = self._advance(core_id, t0, t1)

        job = self.job
        app_keys: List[ChareKey] = []
        app_ws: List[float] = []
        bg_ws: List[float] = []
        for p in procs:
            if p.owner == job:
                app_keys.append(p.key)
                app_ws.append(p.weight)
            else:
                bg_ws.append(p.weight)
        shares: Optional[_Shares] = None
        if app_keys:
            combo = (tuple(app_ws), tuple(bg_ws))
            shares = self._shares.get(combo)
            if shares is None:
                shares = self._derive_shares(combo)
        busy = bool(bg_ws)

        per_core = self._per_core[core_id]
        prev, prev_q = t0, q0
        for c in self._cuts(t0, t1):
            if c <= prev:
                continue
            qc = quanta(c)
            self._segment(
                core_id, per_core, prev, qc - prev_q, app_keys, shares, busy
            )
            prev, prev_q = c, qc
        if prev < t1:
            self._segment(
                core_id, per_core, prev, q1 - prev_q, app_keys, shares, busy
            )

    def accrue_app(
        self, core_id: int, t0: float, t1: float, key: ChareKey
    ) -> None:
        """Attribute ``[t0, t1)`` as pure compute of chare ``key``.

        Fast-path special case for a solo-running app task: the whole
        interval is compute (share ``w/w == 1``), so no weight split is
        needed — only iteration segmentation.
        """
        if self.closed_at is not None:
            return
        if t1 <= t0:
            return
        prev_q, q1 = self._advance(core_id, t0, t1)
        per_core = self._per_core[core_id]
        entry = self._chares.get(key)
        if entry is None:
            entry = self._chares[key] = [0, 0]
        m = self._m
        marks = self._marks
        i = bisect.bisect_right(marks, t0)
        # ``row`` is the iteration the segment starting at ``prev``
        # belongs to; passing mark i (a duplicate too) makes it i
        row = i - 1
        prev = t0
        while i < len(marks) and marks[i] < t1:
            c = marks[i]
            if c > prev:
                qc = self._mark_q[i]
                dt = (qc - prev_q) * m
                per_core[_COMPUTE] += dt
                entry[0] += dt
                self._iter_row(row)[_COMPUTE] += dt
                prev, prev_q = c, qc
            row = i
            i += 1
        dt = (q1 - prev_q) * m
        per_core[_COMPUTE] += dt
        entry[0] += dt
        self._iter_row(row)[_COMPUTE] += dt

    # -- internals ------------------------------------------------------
    def _derive_shares(
        self, combo: Tuple[Tuple[float, ...], Tuple[float, ...]]
    ) -> _Shares:
        """The integer multipliers of one weight combination, growing
        ``M`` first if a share's denominator does not divide it."""
        app_ws, bg_ws = combo
        ws = [Fraction(w) for w in app_ws]
        app_w = sum(ws, Fraction(0))
        total_w = app_w + sum((Fraction(w) for w in bg_ws), Fraction(0))
        comp = app_w / total_w
        per = [(w / total_w, w / app_w - w / total_w) for w in ws]
        self._grow(
            math.lcm(
                comp.denominator,
                *(c.denominator for c, _ in per),
                *(s.denominator for _, s in per),
            )
        )
        m = self._m
        k_comp = comp.numerator * (m // comp.denominator)
        shares = (
            k_comp,
            m - k_comp,
            tuple(
                (
                    c.numerator * (m // c.denominator),
                    s.numerator * (m // s.denominator),
                )
                for c, s in per
            ),
        )
        self._shares[combo] = shares
        return shares

    def _grow(self, q: int) -> None:
        """Make ``q`` divide ``M``, rescaling every accumulator in place."""
        m = self._m
        if m % q == 0:
            return
        grown = math.lcm(m, q)
        f = grown // m
        for row in (
            *self._per_core.values(), *self._chares.values(), *self._iters
        ):
            for j in range(len(row)):
                row[j] *= f
        for busy in (self._busy_overhead, self._busy_idle):
            for cid in busy:
                busy[cid] *= f
        self._m = grown
        self._shares.clear()

    def _cuts(self, t0: float, t1: float) -> List[float]:
        """Classification boundaries strictly inside ``(t0, t1)``."""
        cuts: List[float] = []
        marks = self._marks
        i = bisect.bisect_right(marks, t0)
        while i < len(marks) and marks[i] < t1:
            cuts.append(marks[i])
            i += 1
        edges = self._pause_edges
        i = bisect.bisect_right(edges, t0)
        while i < len(edges) and edges[i] < t1:
            cuts.append(edges[i])
            i += 1
        cuts.sort()
        return cuts

    def _iter_row(self, idx: int) -> List[int]:
        if idx < 0:
            idx = 0
        iters = self._iters
        while len(iters) <= idx:
            iters.append([0, 0, 0, 0])
        return iters[idx]

    def _in_pause(self, t: float) -> bool:
        # edges alternate start, end: t lies in some [start, end) iff an
        # odd number of edges is <= t
        return bisect.bisect_right(self._pause_edges, t) % 2 == 1

    def _segment(
        self,
        core_id: int,
        per_core: List[int],
        s0: float,
        dt: int,
        app_keys: List[ChareKey],
        shares: Optional[_Shares],
        busy: bool,
    ) -> None:
        """Accrue ``dt`` quanta starting at ``s0`` (no cut inside)."""
        it = self._iter_row(bisect.bisect_right(self._marks, s0) - 1)
        if shares is not None:
            k_comp, k_stol, per_app = shares
            comp = dt * k_comp
            stol = dt * k_stol
            per_core[_COMPUTE] += comp
            per_core[_STOLEN] += stol
            it[_COMPUTE] += comp
            it[_STOLEN] += stol
            chares = self._chares
            for key, (k_c, k_s) in zip(app_keys, per_app):
                entry = chares.get(key)
                if entry is None:
                    entry = chares[key] = [0, 0]
                entry[0] += dt * k_c
                entry[1] += dt * k_s
        else:
            d = dt * self._m
            if self._in_pause(s0):
                per_core[_OVERHEAD] += d
                it[_OVERHEAD] += d
                if busy:
                    self._busy_overhead[core_id] += d
            else:
                per_core[_IDLE] += d
                it[_IDLE] += d
                if busy:
                    self._busy_idle[core_id] += d

    # ------------------------------------------------------------------
    # closing / invariants
    # ------------------------------------------------------------------
    def close(self, t_end: float) -> None:
        """Seal the ledger at job completion time ``t_end``.

        Every core must be accounted exactly to ``t_end`` (the caller
        syncs its cores first); later accruals become no-ops.
        """
        if self.closed_at is not None:
            raise LedgerError("ledger already closed")
        for cid in self.core_ids:
            cur = self._cursor[cid]
            if cur != t_end and t_end > 0.0:
                raise LedgerError(
                    f"core {cid} accounted to {cur!r}, not the closing "
                    f"time {t_end!r} — sync the core before close()"
                )
        self.closed_at = t_end

    @property
    def closed(self) -> bool:
        return self.closed_at is not None

    @property
    def _denominator(self) -> int:
        """``D``: every accumulator is a count of ``1/D`` seconds."""
        return self._m << QUANTUM_BITS

    def _totals(self) -> List[int]:
        out = [0, 0, 0, 0]
        for buckets in self._per_core.values():
            for j in range(4):
                out[j] += buckets[j]
        return out

    def _busy(self, totals: List[int]) -> List[int]:
        return [
            totals[_COMPUTE],
            totals[_STOLEN],
            sum(self._busy_overhead.values()),
            sum(self._busy_idle.values()),
        ]

    def _residual(self, totals: List[int]) -> int:
        if self.closed_at is None:
            raise LedgerError("ledger still open — close() it first")
        wall = quanta(self.closed_at) * self._m * len(self.core_ids)
        return sum(totals) - wall

    def totals_exact(self) -> Dict[str, Fraction]:
        """Exact bucket totals summed over every core."""
        d = self._denominator
        return {b: Fraction(v, d) for b, v in zip(BUCKETS, self._totals())}

    def busy_exact(self) -> Dict[str, Fraction]:
        """Exact *busy* core-seconds by bucket.

        Compute and stolen wall time is busy by definition; overhead and
        idle wall time counts only the sub-intervals where co-runners
        kept the core busy. This is the partition the energy
        decomposition splits dynamic joules by.
        """
        d = self._denominator
        busy = self._busy(self._totals())
        return {b: Fraction(v, d) for b, v in zip(BUCKETS, busy)}

    def residual_exact(self) -> Fraction:
        """``sum(buckets) - wall x cores`` — zero iff conserved."""
        return Fraction(self._residual(self._totals()), self._denominator)

    @property
    def conserved(self) -> bool:
        return self.residual_exact() == 0

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe reduction (floats derived from the exact values).

        Every float is an ``int / int`` of the exact accumulators, which
        Python rounds correctly. Deterministic: keys sorted, so two
        identical runs — and the two backends — serialise
        byte-identically.
        """
        if self.closed_at is None:
            raise LedgerError("ledger still open — close() it first")
        wall = self.closed_at
        d = self._denominator
        totals = self._totals()
        busy = self._busy(totals)
        residual = self._residual(totals)
        # totals[j] / D over wall x cores, with the 2**1074 cancelled
        share_d = quanta(wall) * self._m * len(self.core_ids)
        per_iteration = []
        for i, start in enumerate(self._marks):
            row: Dict[str, Any] = {"iteration": i, "start_s": start}
            buckets = self._iters[i] if i < len(self._iters) else (0, 0, 0, 0)
            for j, b in enumerate(BUCKETS):
                row[b] = buckets[j] / d
            per_iteration.append(row)
        chares = {}
        for key in sorted(self._chares):
            comp, stol = self._chares[key]
            chares[f"{key[0]}[{key[1]}]"] = {
                "compute": comp / d,
                "stolen": stol / d,
            }
        return {
            "schema": LEDGER_SCHEMA,
            "job": self.job,
            "wall_s": wall,
            "cores": list(self.core_ids),
            "conserved": residual == 0,
            "residual_s": residual / d,
            "totals": {b: totals[j] / d for j, b in enumerate(BUCKETS)},
            "fractions": {
                b: (totals[j] / share_d if share_d else 0.0)
                for j, b in enumerate(BUCKETS)
            },
            "busy": {b: busy[j] / d for j, b in enumerate(BUCKETS)},
            "per_core": {
                str(cid): {
                    b: self._per_core[cid][j] / d
                    for j, b in enumerate(BUCKETS)
                }
                for cid in self.core_ids
            },
            "per_iteration": per_iteration,
            "chares": chares,
        }


# ---------------------------------------------------------------------------
# rendering (the `repro explain` waterfall)
# ---------------------------------------------------------------------------

#: One glyph per bucket for the per-core strips.
_GLYPHS = {"compute": "#", "stolen": "x", "overhead": "o", "idle": "."}


def _strip(shares: Dict[str, float], width: int) -> str:
    """A fixed-width textual stacked bar from bucket shares (sum ~ 1)."""
    cells: List[str] = []
    assigned = 0
    for i, b in enumerate(BUCKETS):
        n = (
            width - assigned
            if i == len(BUCKETS) - 1
            else int(round(shares.get(b, 0.0) * width))
        )
        n = max(0, min(n, width - assigned))
        cells.append(_GLYPHS[b] * n)
        assigned += n
    return "".join(cells)


def format_ledger_text(
    summary: Dict[str, Any],
    *,
    label: Optional[str] = None,
    energy: Optional[Dict[str, Any]] = None,
    top: int = 8,
    width: int = 44,
) -> str:
    """Human-readable waterfall of one ledger summary.

    ``energy`` is an optional :func:`repro.power.meter.decompose_energy`
    dict rendered as a closing line; ``top`` bounds the chare table.
    """
    wall = summary["wall_s"]
    cores = summary["cores"]
    totals = summary["totals"]
    fractions = summary["fractions"]
    status = "conserved" if summary["conserved"] else (
        f"NOT CONSERVED (residual {summary['residual_s']:+.3e}s)"
    )
    lines = []
    head = f"wall {wall:.6f}s x {len(cores)} cores = " \
           f"{wall * len(cores):.6f} core-s [{status}]"
    lines.append(f"{label}: {head}" if label else head)
    for b in BUCKETS:
        share = fractions[b]
        bar = _GLYPHS[b] * max(1 if totals[b] > 0 else 0, int(round(share * width)))
        lines.append(
            f"  {b:<9} {totals[b]:>12.6f} core-s  {100.0 * share:5.1f}%  {bar}"
        )
    lines.append("  per-core waterfall (# compute, x stolen, o overhead, . idle):")
    for cid in cores:
        row = summary["per_core"][str(cid)]
        denom = wall if wall > 0 else 1.0
        shares = {b: row[b] / denom for b in BUCKETS}
        lines.append(f"    core {cid:>3} |{_strip(shares, width)}|")
    chares = summary.get("chares", {})
    if chares and top > 0:
        ranked = sorted(
            chares.items(),
            key=lambda kv: -(kv[1]["compute"] + kv[1]["stolen"]),
        )[:top]
        lines.append(f"  top {len(ranked)} chares by attributed time:")
        for name, row in ranked:
            lines.append(
                f"    {name:<20} compute {row['compute']:>10.6f}s  "
                f"stolen {row['stolen']:>10.6f}s"
            )
    if energy is not None:
        buckets = energy.get("dynamic_by_bucket") or {}
        split = ", ".join(
            f"{b} {buckets[b]:.3f}" for b in BUCKETS if b in buckets
        )
        lines.append(
            f"  energy: {energy['energy_j']:.3f} J = base {energy['base_j']:.3f} J"
            f" + dynamic {energy['dynamic_j']:.3f} J"
            + (f" ({split})" if split else "")
        )
    return "\n".join(lines)
