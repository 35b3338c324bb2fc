"""Imbalance observatory: per-chare lineage, flow, and counterfactual bounds.

The audit trail (:mod:`repro.telemetry.audit`) records what the balancer
*decided* and the ledger (:mod:`repro.obs.ledger`) records where wall
clock *went*; this module records what the load actually *was*, object
by object, and what each LB step did about it:

* **lineage** — one load sample per (chare, iteration) plus every
  migration, reduced to a residency graph: which core each chare lived
  on over which iteration span, and which LB step moved it;
* **imbalance metrics** — per-iteration λ = max/avg core load,
  coefficient of variation, Gini coefficient and per-core load shares,
  all computed from the same samples;
* **counterfactual bounds** — each LB step's interval replayed under
  (a) the pre-step mapping (no-migration counterfactual) and (b) an
  oracle fractional balance (total/P lower bound), yielding a
  ``recovered / recoverable`` efficiency per step and per run.

The chare CPU demand of an iteration is a function of the chare and the
iteration number only — never of the mapping — so replaying an interval
under a different placement with the recorded samples is exact, not an
estimate.

Like the ledger, the recorder never *accumulates* floats. Every sample
and every interference snapshot is a float, so it is an exact integer
count of float quanta (``2**-1074``, see :func:`repro.obs.ledger.quanta`),
and all aggregation is Python ``int`` arithmetic at that fixed quantum.
The oracle bound (total/P) is the one division; the counterfactuals
carry it exactly by counting in units of ``1 / (P * 2**1074)``. So the
headline invariants hold exactly rather than to within rounding: λ ≥ 1,
Gini ∈ [0, 1), CoV = 0 iff the loads are perfectly balanced, oracle ≤
observed for every step, and the metrics are permutation-invariant over
cores. Floats appear only in the JSON payload, each one an ``int / int``
of the exact values — Python rounds that division correctly, so it is
the float ``fractions.Fraction`` would give — which is also why the two
backends produce payloads that compare ``==``.

The null-hook doctrine applies: backends carry a ``lineage`` attribute
that defaults to ``None`` and pay one identity check per hook site, so
runs without a recorder attached are byte-identical to recorder-free
builds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.obs.ledger import QUANTUM_BITS, quanta

__all__ = [
    "LINEAGE_SCHEMA",
    "LineageError",
    "LineageRecorder",
    "imbalance_metrics",
    "format_lineage_text",
    "lineage_dot",
]

#: Version stamp carried by every lineage payload.
LINEAGE_SCHEMA = 1

ChareKey = Tuple[str, int]

#: Float quanta per second: samples are counted in units of ``1/_Q``.
_Q = 1 << QUANTUM_BITS

#: The :meth:`LineageRecorder.counterfactuals` entries that are loads.
_CF_LOADS = (
    "interference", "observed_max", "nolb_max", "oracle_max",
    "recovered", "recoverable",
)


class LineageError(RuntimeError):
    """A lineage invariant was violated (bad hook order or broken graph)."""


def _chare_str(key: ChareKey) -> str:
    return f"{key[0]}[{key[1]}]"


# ---------------------------------------------------------------------------
# imbalance metrics (pure, exact)
# ---------------------------------------------------------------------------


def imbalance_metrics(loads: Sequence[Any]) -> Dict[str, float]:
    """Imbalance statistics of one per-core load vector, computed exactly.

    ``loads`` is one non-negative number per core (floats, ints or
    Fractions). All aggregation is rational, floats only at the end, so:

    * ``lambda`` = max/mean ≥ 1.0 always (exactly 1.0 iff balanced);
    * ``cov`` = stddev/mean is 0.0 **iff** every load is equal;
    * ``gini`` ∈ [0, (n-1)/n] ⊂ [0, 1);
    * every statistic is invariant under permuting the cores.

    An all-zero vector is defined as perfectly balanced (λ = 1).
    """
    if not loads:
        raise ValueError("imbalance_metrics needs at least one core load")
    xs = [Fraction(x) for x in loads]
    if any(x < 0 for x in xs):
        raise ValueError("core loads must be non-negative")
    unit = math.lcm(*(x.denominator for x in xs))
    return _imbalance([x.numerator * (unit // x.denominator) for x in xs], unit)


def _imbalance(xs: Sequence[int], unit: int) -> Dict[str, float]:
    """:func:`imbalance_metrics` of the loads ``x / unit``, from integer
    sums: with ``S = Σx``, ``cov² = (n·Σx² − S²)/S²`` and
    ``gini = Σ(2i−n+1)·x₍ᵢ₎/(n·S)`` over the ascending order ``x₍ᵢ₎``.
    Each float is one correctly rounded ``int / int``."""
    n = len(xs)
    total = sum(xs)
    if total == 0:
        return {
            "lambda": 1.0, "cov": 0.0, "gini": 0.0,
            "max_s": 0.0, "mean_s": 0.0, "total_s": 0.0,
        }
    mx = max(xs)
    sq = total * total
    gini = sum((2 * i - n + 1) * x for i, x in enumerate(sorted(xs)))
    return {
        "lambda": mx * n / total,
        "cov": math.sqrt((n * sum(x * x for x in xs) - sq) / sq),
        "gini": gini / (n * total),
        "max_s": mx / unit,
        "mean_s": total / (n * unit),
        "total_s": total / unit,
    }


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


class _Loads(NamedTuple):
    """Exact loads in float quanta (see :meth:`LineageRecorder._loads`)."""

    by_iteration: List[Dict[int, int]]
    by_span: List[Dict[ChareKey, int]]


class LineageRecorder:
    """Per-chare load samples + migration lineage for one job's run.

    Parameters
    ----------
    job:
        Name tag of the observed job (cosmetic, carried in the payload).
    core_ids:
        The job's cores — the only cores loads are attributed to.

    The simulation side drives four hooks:

    * :meth:`record_placement` — the initial chare → core mapping,
      captured once before the first iteration;
    * :meth:`mark_iteration` — iteration begin times;
    * :meth:`record_sample` — one completed task: (chare, iteration,
      executing core, accrued CPU seconds);
    * :meth:`record_lb_step` — one LB step's migrations, stamped with
      the simulated time and the first iteration run under the new
      mapping;
    * :meth:`close` — seal the recorder at job completion.
    """

    def __init__(self, job: str = "app", core_ids: Sequence[int] = ()) -> None:
        self.job = job
        self.core_ids: Tuple[int, ...] = tuple(sorted(int(c) for c in core_ids))
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ValueError("core_ids contains duplicates")
        self._placement: Dict[ChareKey, int] = {}
        # iteration -> chare -> (core, cpu_s); dict-keyed, so the two
        # backends' different completion orders compare equal
        self._samples: Dict[int, Dict[ChareKey, Tuple[int, float]]] = {}
        self._marks: List[float] = []
        self._steps: List[Dict[str, Any]] = []
        self._close_bg: Optional[Dict[int, float]] = None
        self.closed_at: Optional[float] = None

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def record_placement(self, mapping: Mapping[ChareKey, int]) -> None:
        """Capture the initial chare → core mapping (once, before start)."""
        if self._placement:
            raise LineageError("placement already recorded")
        cores = set(self.core_ids)
        for key, cid in mapping.items():
            if cid not in cores:
                raise LineageError(
                    f"chare {key!r} placed on core {cid}, not one of the "
                    f"job's cores {self.core_ids}"
                )
        self._placement = dict(mapping)

    def mark_iteration(self, iteration: int, t: float) -> None:
        """Record that ``iteration`` begins at simulated time ``t``."""
        if self.closed_at is not None:
            return
        if iteration != len(self._marks):
            raise LineageError(
                f"iteration mark {iteration} out of order "
                f"(expected {len(self._marks)})"
            )
        if self._marks and t < self._marks[-1]:
            raise LineageError("iteration marks must be non-decreasing")
        self._marks.append(t)

    def record_sample(
        self, key: ChareKey, iteration: int, core_id: int, cpu_time: float
    ) -> None:
        """Record one completed task's accrued CPU seconds."""
        if self.closed_at is not None:
            return
        if cpu_time < 0.0:
            raise LineageError(f"negative CPU sample for {key!r}: {cpu_time}")
        per = self._samples.setdefault(iteration, {})
        if key in per:
            raise LineageError(
                f"duplicate sample for chare {key!r} in iteration {iteration}"
            )
        per[key] = (core_id, cpu_time)

    def record_lb_step(
        self,
        *,
        time: float,
        iteration: int,
        migrations: Sequence[Tuple[ChareKey, int, int]],
        bg_cpu: Optional[Mapping[int, float]] = None,
    ) -> None:
        """Record one LB step: ``iteration`` is the first iteration that
        will run under the post-step mapping.

        ``bg_cpu`` is the *cumulative* CPU other owners have consumed on
        each of the job's cores up to this step — the interference
        boundary snapshot the counterfactual replay charges each window
        with. Without it the replay degrades to pure app CPU.
        """
        if self.closed_at is not None:
            return
        if self._steps:
            prev = self._steps[-1]
            if time < prev["time"] or iteration <= prev["iteration"]:
                raise LineageError("LB steps must be ordered in time")
        self._steps.append(
            {
                "time": time,
                "iteration": int(iteration),
                "migrations": [
                    (key, int(src), int(dst)) for key, src, dst in migrations
                ],
                "bg_cpu": None if bg_cpu is None else dict(bg_cpu),
            }
        )

    def close(
        self, t_end: float, *, bg_cpu: Optional[Mapping[int, float]] = None
    ) -> None:
        """Seal the recorder at job completion time ``t_end``.

        ``bg_cpu`` is the closing cumulative interference snapshot
        (see :meth:`record_lb_step`).
        """
        if self.closed_at is not None:
            raise LineageError("lineage recorder already closed")
        self._close_bg = None if bg_cpu is None else dict(bg_cpu)
        self.closed_at = t_end

    @property
    def closed(self) -> bool:
        return self.closed_at is not None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def n_iterations(self) -> int:
        return len(self._marks)

    def samples(self) -> Dict[int, Dict[ChareKey, Tuple[int, float]]]:
        """The raw (iteration → chare → (core, cpu)) sample store."""
        return {i: dict(per) for i, per in self._samples.items()}

    def _mappings(self) -> List[Dict[ChareKey, int]]:
        """Mapping snapshots: entry k is the mapping *after* step k-1
        (entry 0 is the initial placement). Validates every migration's
        source against the chare's current residency."""
        if not self._placement:
            raise LineageError("no placement recorded")
        snaps = [dict(self._placement)]
        current = dict(self._placement)
        for step in self._steps:
            for key, src, dst in step["migrations"]:
                if key not in current:
                    raise LineageError(f"migration of unplaced chare {key!r}")
                if current[key] != src:
                    raise LineageError(
                        f"chare {key!r} migrated from core {src} but "
                        f"resides on core {current[key]}"
                    )
                current[key] = dst
            snaps.append(dict(current))
        return snaps

    def residencies(self) -> Dict[ChareKey, List[Dict[str, Any]]]:
        """Chare → residency intervals ``[from_iteration, to_iteration)``.

        Intervals tile each chare's lifetime ``[0, n_iterations)``
        contiguously; each interval after the first carries the index of
        the LB step that opened it.
        """
        self._mappings()  # validates sources
        n = self.n_iterations
        out: Dict[ChareKey, List[Dict[str, Any]]] = {}
        for key in sorted(self._placement):
            out[key] = [
                {
                    "core": self._placement[key],
                    "from_iteration": 0,
                    "to_iteration": n,
                    "lb_step": None,
                }
            ]
        for k, step in enumerate(self._steps):
            boundary = step["iteration"]
            for key, _src, dst in step["migrations"]:
                intervals = out[key]
                intervals[-1]["to_iteration"] = boundary
                intervals.append(
                    {
                        "core": dst,
                        "from_iteration": boundary,
                        "to_iteration": n,
                        "lb_step": k,
                    }
                )
        return out

    def _validate_samples(self) -> None:
        """Every (chare, iteration) sample must sit on the chare's
        residency core, and every placed chare must have exactly one
        sample per iteration."""
        snaps = self._mappings()
        bounds = [s["iteration"] for s in self._steps]
        n = self.n_iterations
        expected = set(self._placement)
        for i in range(n):
            per = self._samples.get(i, {})
            if set(per) != expected:
                missing = sorted(expected - set(per))[:3]
                extra = sorted(set(per) - expected)[:3]
                raise LineageError(
                    f"iteration {i}: sample set does not match the placed "
                    f"chares (missing {missing}, unplaced {extra})"
                )
            # snapshot index = number of steps at or before iteration i
            snap = snaps[_steps_before(bounds, i)]
            for key, (core, _cpu) in per.items():
                if snap[key] != core:
                    raise LineageError(
                        f"iteration {i}: chare {key!r} sampled on core "
                        f"{core} but resides on core {snap[key]}"
                    )

    # ------------------------------------------------------------------
    # exact aggregation
    # ------------------------------------------------------------------
    def _loads(self) -> _Loads:
        """Every sample summed exactly, each converted to quanta once.

        Returns per-iteration per-core loads and, for every span between
        LB steps (span ``j`` starts at step ``j - 1``; span 0 at the run
        start), per-chare loads — all a counterfactual replay needs,
        without holding one integer per sample.
        """
        bounds = [step["iteration"] for step in self._steps]
        by_iteration: List[Dict[int, int]] = []
        by_span: List[Dict[ChareKey, int]] = [{} for _ in range(len(bounds) + 1)]
        j = 0
        for i in range(self.n_iterations):
            while j < len(bounds) and bounds[j] <= i:
                j += 1
            loads = dict.fromkeys(self.core_ids, 0)
            span = by_span[j]
            for key, (core, cpu) in self._samples.get(i, {}).items():
                q = quanta(cpu)
                loads[core] += q
                span[key] = span.get(key, 0) + q
            by_iteration.append(loads)
        return _Loads(by_iteration, by_span)

    def _observed_loads(self, loads: _Loads, lo: int, hi: int) -> Dict[int, int]:
        """Exact per-core load over iterations ``[lo, hi)``, in quanta."""
        rows = loads.by_iteration[lo:hi]
        return {cid: sum(row[cid] for row in rows) for cid in self.core_ids}

    def _step_bounds(self) -> List[Tuple[int, int]]:
        """Iteration interval ``[lo, hi)`` governed by each LB step."""
        n = self.n_iterations
        bounds = []
        for k, step in enumerate(self._steps):
            lo = step["iteration"]
            hi = self._steps[k + 1]["iteration"] if k + 1 < len(self._steps) else n
            bounds.append((lo, hi))
        return bounds

    def _bg_snapshots(self) -> List[Optional[Dict[int, int]]]:
        """Cumulative interference at each boundary, in quanta: run
        start, every LB step, run end. ``None`` where no snapshot was
        recorded."""
        snaps: List[Optional[Dict[int, int]]] = [{cid: 0 for cid in self.core_ids}]
        for bg in [step["bg_cpu"] for step in self._steps] + [self._close_bg]:
            snaps.append(
                None if bg is None
                else {cid: quanta(bg.get(cid, 0.0)) for cid in self.core_ids}
            )
        return snaps

    @staticmethod
    def _bg_delta(
        a: Optional[Dict[int, int]],
        b: Optional[Dict[int, int]],
        core_ids: Tuple[int, ...],
    ) -> Dict[int, int]:
        if a is None or b is None:
            return {cid: 0 for cid in core_ids}
        return {cid: b[cid] - a[cid] for cid in core_ids}

    def _counterfactuals(self, loads: _Loads) -> List[Dict[str, Any]]:
        """:meth:`counterfactuals` with every quantity an ``int`` in
        units of ``1 / (P * 2**1074)`` seconds, so the oracle mean
        total/P stays exact."""
        snaps = self._mappings()
        bg_snaps = self._bg_snapshots()
        P = len(self.core_ids)
        out = []
        for k, (lo, hi) in enumerate(self._step_bounds()):
            interference = self._bg_delta(
                bg_snaps[k + 1], bg_snaps[k + 2], self.core_ids
            )
            app_obs = self._observed_loads(loads, lo, hi)
            # replay step k's span under the pre-step mapping
            app_nolb = dict.fromkeys(self.core_ids, 0)
            for key, q in loads.by_span[k + 1].items():
                app_nolb[snaps[k][key]] += q
            observed = [app_obs[c] + interference[c] for c in self.core_ids]
            nolb = [app_nolb[c] + interference[c] for c in self.core_ids]
            obs_max = max(observed, default=0) * P
            nolb_max = max(nolb, default=0) * P
            oracle = sum(observed)
            recovered = nolb_max - obs_max
            recoverable = nolb_max - oracle
            out.append(
                {
                    "step": k,
                    "interval": (lo, hi),
                    "interference": sum(interference.values()) * P,
                    "observed_max": obs_max,
                    "nolb_max": nolb_max,
                    "oracle_max": oracle,
                    "recovered": recovered,
                    "recoverable": recoverable,
                    "efficiency": (
                        recovered / recoverable if recoverable > 0 else None
                    ),
                    "sane": oracle <= obs_max <= nolb_max,
                }
            )
        return out

    def counterfactuals(self) -> List[Dict[str, Any]]:
        """Per-step counterfactual bounds on *effective* load, exactly.

        A core's effective load over step k's interval is the app CPU
        assigned to it plus the interference other jobs stole from it
        there (the quantity the paper's Algorithm 1 balances — an
        interference-aware step deliberately *skews* raw app CPU, so
        replaying raw CPU would score it backwards). App CPU is a
        function of (chare, iteration) only, so re-assigning it under
        the pre-step mapping is exact; interference is pinned to the
        core it was measured on in all three variants.

        ``observed`` is the realised max effective core load; ``nolb``
        replays the interval under the pre-step mapping; ``oracle`` is
        the fractional-balance lower bound (total/P, i.e. the mean).
        ``oracle ≤ observed`` holds by construction (a mean never
        exceeds a max); ``observed ≤ nolb`` is the genuine claim that
        the step helped, reported via ``sane``. Loads are
        ``fractions.Fraction`` seconds.
        """
        unit = len(self.core_ids) << QUANTUM_BITS
        return [
            {**cf, **{key: Fraction(cf[key], unit) for key in _CF_LOADS}}
            for cf in self._counterfactuals(self._loads())
        ]

    # ------------------------------------------------------------------
    # payload
    # ------------------------------------------------------------------
    def payload(
        self, audit: Optional[Sequence[Mapping[str, Any]]] = None
    ) -> Dict[str, Any]:
        """JSON-safe reduction (floats derived from the exact values).

        ``audit`` (optional) is the run's audit-trail record list; step
        k is joined with audit record k, contributing the strategy name
        and each migration's accept reason. Deterministic: two identical
        runs — and the two backends — serialise byte-identically.
        """
        if self.closed_at is None:
            raise LineageError("lineage recorder still open — close() it first")
        self._validate_samples()
        if audit is not None and len(audit) != len(self._steps):
            raise LineageError(
                f"audit trail has {len(audit)} steps but lineage recorded "
                f"{len(self._steps)}"
            )
        n = self.n_iterations
        exact = self._loads()
        per_iteration = []
        for i in range(n):
            loads = exact.by_iteration[i]
            metrics = _imbalance([loads[cid] for cid in self.core_ids], _Q)
            total = sum(loads.values())
            row = {
                "iteration": i,
                "start_s": self._marks[i],
                "lambda": metrics["lambda"],
                "cov": metrics["cov"],
                "gini": metrics["gini"],
                "max_s": metrics["max_s"],
                "total_s": metrics["total_s"],
                "loads": {str(cid): loads[cid] / _Q for cid in self.core_ids},
                "shares": {
                    str(cid): (loads[cid] / total if total else 0.0)
                    for cid in self.core_ids
                },
            }
            per_iteration.append(row)

        steps = []
        recovered_total = 0
        recoverable_total = 0
        unit = len(self.core_ids) << QUANTUM_BITS
        for k, cf in enumerate(self._counterfactuals(exact)):
            step = self._steps[k]
            record = audit[k] if audit is not None else None
            if record is not None and record.get("iteration") is not None:
                if int(record["iteration"]) != step["iteration"]:
                    raise LineageError(
                        f"step {k}: audit iteration {record['iteration']} != "
                        f"lineage iteration {step['iteration']}"
                    )
            migrations = [
                {
                    "chare": _chare_str(key),
                    "src": src,
                    "dst": dst,
                    "reason": _join_reason(record, key, src, dst),
                }
                for key, src, dst in step["migrations"]
            ]
            recovered_total += cf["recovered"]
            recoverable_total += cf["recoverable"]
            steps.append(
                {
                    "step": k,
                    "time": step["time"],
                    "iteration": step["iteration"],
                    "iterations": list(cf["interval"]),
                    "migrations": migrations,
                    "strategy": (
                        record.get("strategy") if record is not None else None
                    ),
                    "rejected": _count_rejected(record),
                    "interference_s": cf["interference"] / unit,
                    "observed_max_s": cf["observed_max"] / unit,
                    "nolb_max_s": cf["nolb_max"] / unit,
                    "oracle_max_s": cf["oracle_max"] / unit,
                    "lambda_observed": (
                        cf["observed_max"] / cf["oracle_max"]
                        if cf["oracle_max"] > 0 else 1.0
                    ),
                    "lambda_nolb": (
                        cf["nolb_max"] / cf["oracle_max"]
                        if cf["oracle_max"] > 0 else 1.0
                    ),
                    "recovered_s": cf["recovered"] / unit,
                    "recoverable_s": cf["recoverable"] / unit,
                    "efficiency": cf["efficiency"],
                    "sane": cf["sane"],
                }
            )

        residencies = {
            _chare_str(key): intervals
            for key, intervals in self.residencies().items()
        }
        return {
            "schema": LINEAGE_SCHEMA,
            "job": self.job,
            "cores": list(self.core_ids),
            "iterations": n,
            "wall_s": self.closed_at,
            "placement": {
                _chare_str(key): self._placement[key]
                for key in sorted(self._placement)
            },
            "residencies": residencies,
            "per_iteration": per_iteration,
            "steps": steps,
            "run": self._run_block(
                steps, exact, recovered_total, recoverable_total, unit
            ),
        }

    def _run_block(
        self,
        steps: List[Dict[str, Any]],
        exact: _Loads,
        recovered: int,
        recoverable: int,
        unit: int,
    ) -> Dict[str, Any]:
        """The run summary; ``recovered``/``recoverable`` count ``1/unit``
        seconds (see :meth:`_counterfactuals`). Called on validated
        samples only, so every chare sits on its final core throughout
        the last span."""
        n = self.n_iterations
        final_lo = self._steps[-1]["iteration"] if self._steps else 0
        bg_snaps = self._bg_snapshots()
        interference = self._bg_delta(bg_snaps[-2], bg_snaps[-1], self.core_ids)
        app_loads = self._observed_loads(exact, final_lo, n)
        loads = {c: app_loads[c] + interference[c] for c in self.core_ids}
        hotspot = None
        total = sum(loads.values())
        if total > 0:
            # max effective load wins; ties break to the lowest core id
            hot = max(self.core_ids, key=lambda cid: (loads[cid], -cid))
            final = self._mappings()[-1]
            on_core = sorted(
                (
                    (q, key) for key, q in exact.by_span[-1].items()
                    if final[key] == hot and q > 0
                ),
                key=lambda pair: (-pair[0], pair[1]),
            )
            hotspot = {
                "core": hot,
                "load_s": loads[hot] / _Q,
                "interference_s": interference[hot] / _Q,
                "share": loads[hot] / total,
                "chares": [
                    {"chare": _chare_str(key), "cpu_s": q / _Q}
                    for q, key in on_core[:3]
                ],
            }
        return {
            "lb_steps": len(steps),
            "migrations": sum(len(s["migrations"]) for s in steps),
            "recovered_s": recovered / unit,
            "recoverable_s": recoverable / unit,
            "efficiency": (
                recovered / recoverable if recoverable > 0 else None
            ),
            "sane": all(s["sane"] for s in steps),
            "residual_hotspot": hotspot,
        }


def _steps_before(bounds: List[int], iteration: int) -> int:
    """How many LB steps precede ``iteration`` (bounds is sorted)."""
    count = 0
    for b in bounds:
        if b <= iteration:
            count += 1
    return count


def _join_reason(
    record: Optional[Mapping[str, Any]], key: ChareKey, src: int, dst: int
) -> Optional[str]:
    """The audit candidate reason for one committed migration."""
    if record is None:
        return None
    want = [key[0], int(key[1])]
    for cand in record.get("candidates", ()):
        if (
            cand.get("chare") == want
            and cand.get("src") == src
            and cand.get("dst") == dst
        ):
            return cand.get("reason")
    return None


def _count_rejected(record: Optional[Mapping[str, Any]]) -> Optional[int]:
    if record is None:
        return None
    return sum(
        1 for c in record.get("candidates", ()) if c.get("outcome") == "rejected"
    )


# ---------------------------------------------------------------------------
# rendering (the `repro lineage` flow summary)
# ---------------------------------------------------------------------------


def _bar(value: float, lo: float, hi: float, width: int = 20) -> str:
    """A fixed-width textual gauge of ``value`` within ``[lo, hi]``."""
    if hi <= lo:
        return "#" * width
    frac = (value - lo) / (hi - lo)
    n = max(0, min(width, int(round(frac * width))))
    return "#" * n + "." * (width - n)


def format_lineage_text(payload: Mapping[str, Any], *, label: Optional[str] = None) -> str:
    """Human-readable flow summary of one lineage payload."""
    rows = payload["per_iteration"]
    run = payload["run"]
    head = (
        f"{payload['job']}: {payload['iterations']} iterations x "
        f"{len(payload['cores'])} cores, wall {payload['wall_s']:.6f}s — "
        f"{run['lb_steps']} LB steps, {run['migrations']} migrations"
    )
    lines = [f"{label}: {head}" if label else head]
    if rows:
        lams = [r["lambda"] for r in rows]
        lo, hi = min(lams), max(lams)
        lines.append(
            f"  per-iteration imbalance λ = max/avg (range {lo:.3f}..{hi:.3f}):"
        )
        for r in rows:
            lines.append(
                f"    iter {r['iteration']:>3}  λ {r['lambda']:6.3f}  "
                f"cov {r['cov']:5.3f}  gini {r['gini']:5.3f}  "
                f"|{_bar(r['lambda'], 1.0, max(hi, 1.0 + 1e-9))}|"
            )
    for s in payload["steps"]:
        eff = (
            f"{100.0 * s['efficiency']:.0f}% of achievable"
            if s["efficiency"] is not None
            else "nothing to recover"
        )
        strategy = f" [{s['strategy']}]" if s.get("strategy") else ""
        sane = "" if s["sane"] else "  ** NOT SANE (observed > no-LB replay) **"
        lines.append(
            f"  LB step {s['step']}{strategy} before iter {s['iteration']}: "
            f"{len(s['migrations'])} migrations, recovered "
            f"{s['recovered_s']:.6f}/{s['recoverable_s']:.6f} core-s ({eff})"
            f"{sane}"
        )
        for m in s["migrations"]:
            reason = f" ({m['reason']})" if m.get("reason") else ""
            lines.append(
                f"      {m['chare']:<18} core {m['src']} -> {m['dst']}{reason}"
            )
    if run["efficiency"] is not None:
        lines.append(
            f"  run: recovered {run['recovered_s']:.6f} of "
            f"{run['recoverable_s']:.6f} recoverable core-s "
            f"({100.0 * run['efficiency']:.0f}%)"
        )
    hot = run.get("residual_hotspot")
    if hot is not None:
        chares = ", ".join(
            f"{c['chare']} ({c['cpu_s']:.6f}s)" for c in hot["chares"]
        )
        lines.append(
            f"  residual hotspot: core {hot['core']} carries "
            f"{100.0 * hot['share']:.1f}% of the closing load"
            + (f" — {chares}" if chares else "")
        )
    return "\n".join(lines)


def lineage_dot(payload: Mapping[str, Any]) -> str:
    """The migration flow as a GraphViz digraph (cores as nodes).

    Edge weight = number of chares moved along that (src → dst) pair
    across all LB steps; node label carries the core's closing load
    share so the flow reads against where load ended up.
    """
    flows: Dict[Tuple[int, int], int] = {}
    for step in payload["steps"]:
        for m in step["migrations"]:
            pair = (m["src"], m["dst"])
            flows[pair] = flows.get(pair, 0) + 1
    last = payload["per_iteration"][-1] if payload["per_iteration"] else None
    lines = ["digraph lineage {", "  rankdir=LR;", "  node [shape=box];"]
    for cid in payload["cores"]:
        share = last["shares"][str(cid)] if last is not None else 0.0
        lines.append(
            f'  c{cid} [label="core {cid}\\n{100.0 * share:.1f}%"];'
        )
    for (src, dst), count in sorted(flows.items()):
        lines.append(
            f'  c{src} -> c{dst} [label="{count}", penwidth={1 + count}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
