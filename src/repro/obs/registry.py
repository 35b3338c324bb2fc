"""The cross-run registry: every sweep run, queryable forever.

Per-run artifacts (sweep tables, audit JSONL, ledger and lineage JSON)
answer "what happened in *this* run"; nothing before this module
answered "what happened *across* runs" — which is where drift, outliers
and regressions live. The registry is an append-only store under
``results/registry/`` (override with ``REPRO_REGISTRY_DIR``):

* ``runs/<run_id>.json`` — one full record per ingested run: config,
  git SHA, code fingerprint, environment fingerprint, per-point seeds
  and metrics, audit summaries, artifact paths;
* ``runs.jsonl`` — an append-only JSONL index (one line per run) for
  cheap listing without reading every record.

Records are written atomically (tmp + rename) and the index is append-
only, so concurrent sweeps can ingest safely and a killed writer can
never corrupt history. Reading tolerates a truncated final index line
(the audit-reader policy) and re-derives missing index lines from the
``runs/`` directory, so the index is a cache of the records, never the
source of truth. Registries may also hold ``kind: "bench"`` records
from older versions; they are listed, shown and reported like any
other record.

Everything is queryable via ``repro runs list/show/diff`` (see
:mod:`repro.cli`), ``repro explain`` and ``repro lineage`` read a
run's points back from it, and it feeds the HTML report
(:mod:`repro.obs.report`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.experiments.cache import canonical_json, code_fingerprint
from repro.util import get_logger, git_sha, utc_timestamp
from repro.util.atomic import atomic_write_json
from repro.version import __version__

__all__ = [
    "RUN_SCHEMA",
    "default_registry_dir",
    "RunRegistry",
    "diff_runs",
]

#: Version stamp on every registry record; bump on incompatible changes.
RUN_SCHEMA = 1

_log = get_logger(__name__)


def default_registry_dir() -> Path:
    """``REPRO_REGISTRY_DIR`` if set, else ``results/registry`` in cwd."""
    env = os.environ.get("REPRO_REGISTRY_DIR")
    if env:
        return Path(env)
    return Path.cwd() / "results" / "registry"


def _env_block() -> Dict[str, Any]:
    """The interpreter, host and source tree a run executed on."""
    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": git_sha(),
        "code_fingerprint": code_fingerprint()[:16],
    }


class RunRegistry:
    """Append-only store of run records under one directory.

    Parameters
    ----------
    root:
        Registry directory (created lazily on first ingest).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "runs.jsonl"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    def _run_path(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.json"

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def _new_run_id(self, kind: str, name: str, created_utc: str, content: Any) -> str:
        digest = hashlib.sha256(
            canonical_json([created_utc, kind, name, content]).encode()
        ).hexdigest()[:8]
        stamp = created_utc.replace("-", "").replace(":", "")
        base = f"{stamp}-{kind}-{digest}"
        run_id, n = base, 1
        while self._run_path(run_id).exists():  # same second, same content
            run_id = f"{base}-{n}"
            n += 1
        return run_id

    def _append_index(self, record: Mapping[str, Any]) -> None:
        line = {
            "schema": RUN_SCHEMA,
            "run_id": record["run_id"],
            "kind": record["kind"],
            "name": record["name"],
            "created_utc": record["created_utc"],
            "git_sha": record["git_sha"],
            "points": len(record.get("points", ())),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.index_path, "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")

    def _ingest(self, record: Dict[str, Any]) -> Dict[str, Any]:
        atomic_write_json(self._run_path(record["run_id"]), record)
        self._append_index(record)
        _log.info("registered run %s (%s)", record["run_id"], record["kind"])
        return record

    def ingest_sweep(
        self,
        spec: "SweepSpec",
        result: "SweepResult",
        *,
        artifacts: Optional[Mapping[str, Any]] = None,
        created_utc: Optional[str] = None,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record one completed sweep; returns the stored record.

        ``artifacts`` maps artifact kinds to paths (``audit_dir``,
        ``jsonl``, ``output`` — whatever the caller wrote); paths are
        stored as strings, never resolved or read back.

        ``extra`` merges additional top-level sections into the record
        (:func:`~repro.experiments.sweep.run_sweep` attaches its
        ``ledger`` and ``lineage`` aggregates this way); reserved record
        keys are never clobbered.
        """
        created = created_utc or utc_timestamp()
        points = [
            {
                "label": r.label,
                "key": r.key,
                "seed": r.params.get("seed"),
                "params": dict(r.params),
                "cached": r.cached,
                "worker": r.worker,
                "wall_s": r.wall_s,
                "summary": r.summary.to_dict(),
                "audit": r.audit,
                "ledger": r.ledger,
                "lineage": r.lineage,
            }
            for r in result.results
        ]
        record: Dict[str, Any] = {
            "schema": RUN_SCHEMA,
            "kind": "sweep",
            "name": spec.name,
            "created_utc": created,
            "git_sha": git_sha(),
            "code_fingerprint": code_fingerprint()[:16],
            "env": _env_block(),
            "spec": spec.to_dict(),
            "metrics": result.metrics.to_dict(),
            "points": points,
            "artifacts": {
                k: (None if v is None else str(v))
                for k, v in (artifacts or {}).items()
            },
        }
        if extra:
            for key, value in extra.items():
                if key not in record:
                    record[key] = value
        record["run_id"] = self._new_run_id(
            "sweep", spec.name, created, [p["key"] for p in points]
        )
        return self._ingest(record)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def list(self) -> List[Dict[str, Any]]:
        """Index lines for every registered run, oldest first.

        The index is reconciled against ``runs/``: records missing from
        the index (e.g. a writer killed between record and index write)
        are recovered from their files, and a truncated final index line
        is skipped with a warning.
        """
        lines: List[Dict[str, Any]] = []
        if self.index_path.is_file():
            with open(self.index_path) as fh:
                raw = fh.readlines()
            last_content = 0
            for line_no, line in enumerate(raw, start=1):
                if line.strip():
                    last_content = line_no
            for line_no, line in enumerate(raw, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    if line_no == last_content and lines:
                        _log.warning(
                            "%s:%d: skipping malformed trailing index "
                            "line (%s)", self.index_path, line_no, exc,
                        )
                        break
                    raise ValueError(
                        f"{self.index_path}:{line_no}: not valid JSON: {exc}"
                    ) from exc
                if isinstance(rec, dict) and rec.get("run_id"):
                    lines.append(rec)
        seen = {rec["run_id"] for rec in lines}
        for path in sorted(self.runs_dir.glob("*.json")):
            if path.stem in seen:
                continue
            try:
                full = self.load(path.stem)
            except (ValueError, OSError):
                continue
            lines.append(
                {
                    "schema": RUN_SCHEMA,
                    "run_id": full["run_id"],
                    "kind": full.get("kind", "?"),
                    "name": full.get("name", "?"),
                    "created_utc": full.get("created_utc", ""),
                    "git_sha": full.get("git_sha", ""),
                    "points": len(full.get("points", ())),
                }
            )
        lines.sort(key=lambda rec: (rec.get("created_utc", ""), rec["run_id"]))
        return lines

    def __len__(self) -> int:
        return len(self.list())

    def resolve(self, ref: str) -> str:
        """A full run id for ``ref`` (exact id, unique prefix, or the
        special ref ``latest`` / ``latest:<name>``)."""
        runs = self.list()
        if not runs:
            raise ValueError(f"registry at {self.root} has no runs")
        if ref == "latest":
            return runs[-1]["run_id"]
        if ref.startswith("latest:"):
            name = ref.split(":", 1)[1]
            matching = [r for r in runs if r.get("name") == name]
            if not matching:
                raise ValueError(f"no runs named {name!r} in {self.root}")
            return matching[-1]["run_id"]
        exact = [r["run_id"] for r in runs if r["run_id"] == ref]
        if exact:
            return exact[0]
        prefixed = [r["run_id"] for r in runs if r["run_id"].startswith(ref)]
        if len(prefixed) == 1:
            return prefixed[0]
        if prefixed:
            raise ValueError(
                f"run ref {ref!r} is ambiguous: {', '.join(prefixed[:5])}"
            )
        raise ValueError(f"no run matching {ref!r} in {self.root}")

    def load(self, ref: str) -> Dict[str, Any]:
        """The full record for one run (accepts :meth:`resolve` refs)."""
        path = self._run_path(ref)
        if not path.is_file():
            path = self._run_path(self.resolve(ref))
        with open(path) as fh:
            try:
                record = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: corrupt run record ({exc})") from exc
        if not isinstance(record, dict) or record.get("schema") != RUN_SCHEMA:
            raise ValueError(f"{path}: not a schema-{RUN_SCHEMA} run record")
        return record


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------

#: Summary fields compared (in order) by :func:`diff_runs`.
_DIFF_FIELDS = (
    "app_time",
    "bg_time",
    "energy_j",
    "avg_power_w",
    "total_migrations",
    "total_migration_cost_s",
    "lb_steps",
    "median",
)


def _point_map(record: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {p["label"]: p for p in record.get("points", ())}


def diff_runs(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> Dict[str, Any]:
    """Structured per-point comparison of two run records.

    Points are matched by label. For every shared label each numeric
    summary field that differs is reported as ``[a, b, rel]`` where
    ``rel`` is the relative change from ``a`` (None when ``a`` is 0 or
    the field is not a ratio-friendly number).
    """
    pa, pb = _point_map(a), _point_map(b)
    only_a = sorted(set(pa) - set(pb))
    only_b = sorted(set(pb) - set(pa))
    changed: Dict[str, Dict[str, List[Any]]] = {}
    identical: List[str] = []
    for label in sorted(set(pa) & set(pb)):
        sa = pa[label].get("summary", {})
        sb = pb[label].get("summary", {})
        deltas: Dict[str, List[Any]] = {}
        for field in _DIFF_FIELDS:
            va, vb = sa.get(field), sb.get(field)
            if va is None and vb is None:
                continue
            if va == vb:
                continue
            rel = None
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
                rel = (vb - va) / abs(va)
            deltas[field] = [va, vb, rel]
        if deltas:
            changed[label] = deltas
        else:
            identical.append(label)
    return {
        "a": a.get("run_id"),
        "b": b.get("run_id"),
        "only_a": only_a,
        "only_b": only_b,
        "changed": changed,
        "identical": identical,
    }
