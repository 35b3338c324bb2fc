"""The LB decision audit trail: *why* the balancer moved what it moved.

One structured record per LB step, capturing everything Algorithm 1 saw
and decided: per-core loads, the estimated background load ``O_p`` of
Eq. (2) next to the **true** injected interference (so the estimation
error is measurable), ``T_avg`` and the resolved ε threshold of Eq. (1)/
(3), every candidate migration considered with an accept/reject reason,
and the simulated overhead the step charged. Records contain only
simulated quantities — no host wall-clock — so two runs of the same
scenario produce byte-identical trails regardless of worker count or
machine (the property the sweep engine's determinism tests pin).

The trail is populated from two sides:

* the **balancer** side (via the base-class hook in
  :meth:`repro.core.balancer.LoadBalancer.balance`) opens a step with the
  view, thresholds, candidates and migrations;
* the **runtime** side commits the step with execution context: simulated
  time, iteration, per-core true background load, and the charged
  migration/decision overhead.

The true background load is a window delta of the cumulative CPU other
owners consumed on each core. The trail keeps the window's start: the
runtime hands it the snapshot at job launch (:meth:`AuditTrail.mark_launch`)
and at every committed step, so both engines share one subtraction.

A step left uncommitted (balancer driven outside a runtime, e.g. in unit
tests) is still a complete record — the runtime fields just stay null.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.util import get_logger, left_sum
from repro.util.atomic import atomic_write, atomic_write_json

__all__ = [
    "AUDIT_SCHEMA",
    "ACCEPTED",
    "NOTED",
    "REJECTED",
    "REASON_ACCEPTED",
    "REASON_RECEIVER_WOULD_EXCEED",
    "REASON_NO_UNDERLOADED_TARGET",
    "REASON_ZERO_CPU_TASK",
    "REASON_GREEDY_LEAST_LOADED",
    "REASON_ALREADY_LEAST_LOADED",
    "REASON_REDIRECT_INTRA_NODE",
    "REASON_REDIRECT_KEPT_REMOTE",
    "REASON_GAIN_BELOW_COST",
    "AuditTrail",
    "write_audit_jsonl",
    "write_json_artifact",
    "read_audit_jsonl",
    "audit_summary",
]

#: Version stamp carried by every audit record and summary.
AUDIT_SCHEMA = 1

_log = get_logger(__name__)

# candidate outcomes
ACCEPTED = "accepted"
REJECTED = "rejected"
NOTED = "noted"  # advisory events (e.g. hierarchical redirects)

# candidate reasons
REASON_ACCEPTED = "accepted"
REASON_RECEIVER_WOULD_EXCEED = "receiver-would-exceed-eq3"
REASON_NO_UNDERLOADED_TARGET = "no-underloaded-target"
REASON_ZERO_CPU_TASK = "zero-cpu-task"
REASON_GREEDY_LEAST_LOADED = "greedy-least-loaded"
REASON_ALREADY_LEAST_LOADED = "already-least-loaded"
REASON_REDIRECT_INTRA_NODE = "redirect-intra-node"
REASON_REDIRECT_KEPT_REMOTE = "redirect-kept-remote"
REASON_GAIN_BELOW_COST = "gain-below-migration-cost"

ChareKey = Tuple[str, int]


def _chare_list(chare: Optional[ChareKey]) -> Optional[List[Any]]:
    return None if chare is None else [chare[0], int(chare[1])]


class AuditTrail:
    """Ordered LB step records for one run.

    Acts as the balancer-side sink (:meth:`on_step`) and the runtime-side
    committer (:meth:`commit_step`). Records are plain dicts so the trail
    serialises to JSONL without an intermediate schema layer.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        # cumulative foreign CPU per core at the current LB window's start
        self._bg_base: Mapping[int, float] = {}

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # balancer side
    # ------------------------------------------------------------------
    def on_step(
        self,
        *,
        strategy: str,
        view: "LBView",
        migrations: Sequence["Migration"],
        candidates: Sequence[Dict[str, Any]],
        t_avg: float,
        epsilon_s: Optional[float],
    ) -> Dict[str, Any]:
        """Open a step record from the balancer's decision (no runtime
        context yet); returns the (mutable) record."""
        bytes_moved = 0.0
        # one chare -> record map serves every migration's lookups
        by_chare = {t.chare: t for c in view.cores for t in c.tasks}
        moved = [by_chare.get(m.chare) for m in migrations]
        for t in moved:
            bytes_moved += 0.0 if t is None else t.state_bytes
        record: Dict[str, Any] = {
            "schema": AUDIT_SCHEMA,
            "step": len(self.records),
            "strategy": strategy,
            "time": None,
            "iteration": None,
            "window_s": view.window,
            "t_avg": t_avg,
            "epsilon_s": epsilon_s,
            "cores": [
                {
                    "core": c.core_id,
                    "tasks": len(c.tasks),
                    "task_time": c.task_time,
                    "bg_est": c.bg_load,
                    "bg_true": None,
                    "load": c.task_time + c.bg_load,
                }
                for c in view.cores
            ],
            "candidates": list(candidates),
            "migrations": [
                {
                    "chare": _chare_list(m.chare),
                    "src": m.src,
                    "dst": m.dst,
                    "cpu_time": 0.0 if t is None else t.cpu_time,
                    "state_bytes": 0.0 if t is None else t.state_bytes,
                }
                for m, t in zip(migrations, moved)
            ],
            "num_migrations": len(migrations),
            "bytes_moved": bytes_moved,
            "migration_cost_s": None,
            "decision_overhead_s": None,
            "overhead_s": None,
        }
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # runtime side
    # ------------------------------------------------------------------
    def mark_launch(self, bg_cpu: Mapping[int, float]) -> None:
        """Open the first LB window at the job's launch snapshot of
        cumulative foreign CPU per core."""
        self._bg_base = bg_cpu

    def commit_step(
        self,
        *,
        time: float,
        iteration: int,
        bg_cpu: Mapping[int, float],
        migration_cost_s: float,
        decision_overhead_s: float,
    ) -> Dict[str, Any]:
        """Fill the most recent step record with runtime context.

        ``bg_cpu`` is the cumulative foreign CPU per core at this step;
        its delta from the window start is the step's ``bg_true``, the
        ground truth the Eq. (2) estimate is audited against. The
        snapshot then starts the next window.
        """
        if not self.records:
            raise RuntimeError("commit_step without a pending audit step")
        base = self._bg_base
        bg_true = {cid: cpu - base.get(cid, 0.0) for cid, cpu in bg_cpu.items()}
        self._bg_base = bg_cpu
        record = self.records[-1]
        record["time"] = time
        record["iteration"] = iteration
        for core in record["cores"]:
            core["bg_true"] = bg_true.get(core["core"])
        record["migration_cost_s"] = migration_cost_s
        record["decision_overhead_s"] = decision_overhead_s
        record["overhead_s"] = migration_cost_s + decision_overhead_s
        return record


# ---------------------------------------------------------------------------
# JSONL IO
# ---------------------------------------------------------------------------


def write_audit_jsonl(records: Iterable[Mapping[str, Any]], path: Union[str, "Path"]) -> int:
    """Write one record per line (sorted keys — byte-deterministic).

    The file is written to a temporary sibling and renamed into place,
    so a killed sweep can never leave a half-written trail at the final
    path — readers either see the complete file or none at all.
    Returns the number of records written.
    """
    n = 0
    with atomic_write(path, ".jsonl.tmp") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            n += 1
    return n


def write_json_artifact(payload: Mapping[str, Any], path: Union[str, "Path"]) -> str:
    """Atomically write one JSON artifact (sorted keys, trailing newline).

    Same tmp-sibling + rename discipline as :func:`write_audit_jsonl`:
    readers either see the complete artifact or none at all. Used for
    single-document observability payloads (ledger summaries, explain
    output) that ride next to audit trails. Returns the final path.
    """
    path = os.fspath(path)
    atomic_write_json(path, payload)
    return path


def read_audit_jsonl(path: Union[str, "Path"]) -> List[Dict[str, Any]]:
    """Load an audit JSONL file back into a list of record dicts.

    A malformed **final** line after at least one valid record (the
    classic truncation signature of a killed writer, e.g. a trail
    produced by an older non-atomic writer or a copy cut mid-transfer)
    is skipped with a warning so inspection of the surviving records
    still works; a malformed line anywhere else — including a file with
    no valid records at all — means the file is not an audit trail and
    raises ``ValueError``.
    """
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        lines = fh.readlines()
    last_content = 0
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            last_content = line_no
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_no == last_content and records:
                _log.warning(
                    "%s:%d: skipping malformed trailing line (%s) — "
                    "likely a truncated write", path, line_no, exc,
                )
                break
            raise ValueError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            if line_no == last_content and records:
                _log.warning(
                    "%s:%d: skipping non-object trailing record — "
                    "likely a truncated write", path, line_no,
                )
                break
            raise ValueError(f"{path}:{line_no}: audit record is not an object")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# summarisation
# ---------------------------------------------------------------------------


def audit_summary(records: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Reduce audit records to deterministic scalar statistics.

    This is what gets folded into sweep result payloads (and cached), and
    what ``repro inspect`` prints: Eq. (2) estimation error per core,
    accept/reject counts by reason, migration totals, and the simulated
    LB overhead.
    """
    reasons: Dict[str, int] = {}
    per_core_err: Dict[int, List[float]] = {}
    migrations = 0
    bytes_moved = 0.0
    overhead = 0.0
    for record in records:
        migrations += int(record.get("num_migrations", 0))
        bytes_moved += float(record.get("bytes_moved", 0.0))
        if record.get("overhead_s") is not None:
            overhead += float(record["overhead_s"])
        for cand in record.get("candidates", ()):
            key = f"{cand.get('outcome', '?')}:{cand.get('reason', '?')}"
            reasons[key] = reasons.get(key, 0) + 1
        for core in record.get("cores", ()):
            if core.get("bg_true") is None:
                continue
            err = float(core["bg_est"]) - float(core["bg_true"])
            per_core_err.setdefault(int(core["core"]), []).append(err)

    per_core: Dict[str, Dict[str, float]] = {}
    all_abs: List[float] = []
    for cid in sorted(per_core_err):
        errs = per_core_err[cid]
        abs_errs = [abs(e) for e in errs]
        all_abs.extend(abs_errs)
        per_core[str(cid)] = {
            "steps": len(errs),
            "mean_err": left_sum(errs) / len(errs),
            "mean_abs_err": left_sum(abs_errs) / len(abs_errs),
            "max_abs_err": max(abs_errs),
        }
    return {
        "schema": AUDIT_SCHEMA,
        "lb_steps": len(records),
        "migrations": migrations,
        "bytes_moved": bytes_moved,
        "overhead_s": overhead,
        "reasons": dict(sorted(reasons.items())),
        "estimation_error": {
            "mean_abs": (left_sum(all_abs) / len(all_abs)) if all_abs else 0.0,
            "max_abs": max(all_abs) if all_abs else 0.0,
            "per_core": per_core,
        },
    }
