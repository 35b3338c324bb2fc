"""On-disk result cache for scenario sweeps.

A sweep re-run with the same spec should not re-simulate anything: every
scenario's summary is cached on disk under a key derived from

* the **canonical scenario parameters** (the normalised point dict the
  sweep engine builds scenarios from), and
* a **code fingerprint** — a SHA-256 over every ``repro`` source file —
  so any change to the simulator automatically invalidates all entries
  (stale results can never be served after a code edit).

Entries are one JSON file each, written atomically (tmp file +
``os.replace``), so concurrent workers and interrupted runs can never
leave a truncated entry that later parses as a result. A corrupt or
unreadable entry is treated as a miss.

The default location is ``.repro-cache/sweeps`` under the current
directory; override per call or with ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.perf.profiler import active as _profiler
from repro.util.atomic import atomic_write

__all__ = [
    "CACHE_FORMAT",
    "code_fingerprint",
    "canonical_json",
    "point_key",
    "ResultCache",
    "default_cache_dir",
]

#: Bump to invalidate every existing cache entry on a schema change.
CACHE_FORMAT = 1

_fingerprint_memo: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over all ``repro`` package sources (memoised per process).

    Hashes each module's package-relative path and contents, in sorted
    order, so the fingerprint is independent of install location but
    changes whenever any simulator code changes.
    """
    global _fingerprint_memo
    if _fingerprint_memo is None:
        import repro

        pkg_root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\x00")
            h.update(path.read_bytes())
            h.update(b"\x00")
        _fingerprint_memo = h.hexdigest()
    return _fingerprint_memo


def canonical_json(data: Any) -> str:
    """Deterministic JSON form (sorted keys, no whitespace variance)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def point_key(params: Dict[str, Any], *, fingerprint: Optional[str] = None) -> str:
    """Cache key for one scenario point: content hash of params + code."""
    payload = canonical_json(
        {
            "format": CACHE_FORMAT,
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
            "params": params,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``.repro-cache/sweeps`` in cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.cwd() / ".repro-cache" / "sweeps"


class ResultCache:
    """Content-addressed store of scenario summaries.

    Parameters
    ----------
    root:
        Directory holding the entries (created lazily on first write).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        # two-level fan-out keeps directories small on big sweeps
        return self.root / key[:2] / f"{key}.json"

    def _entry(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        with _profiler().phase("cache.get"):
            try:
                with open(path) as fh:
                    entry = json.load(fh)
            except (OSError, json.JSONDecodeError):
                return None
        if entry.get("format") != CACHE_FORMAT or entry.get("key") != key:
            return None
        return entry

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached summary dict for ``key``, or None on a miss."""
        entry = self._entry(key)
        if entry is None:
            return None
        summary = entry.get("summary")
        return summary if isinstance(summary, dict) else None

    def get_extras(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry's extras section (e.g. telemetry audit), or None.

        Entries written before extras existed — or without them — simply
        return None; callers needing extras treat that as a miss.
        """
        entry = self._entry(key)
        if entry is None:
            return None
        extras = entry.get("extras")
        return extras if isinstance(extras, dict) else None

    def get_provenance(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry's provenance stamp, or None (pre-stamp entries)."""
        entry = self._entry(key)
        if entry is None:
            return None
        provenance = entry.get("provenance")
        return provenance if isinstance(provenance, dict) else None

    def put(
        self,
        key: str,
        params: Dict[str, Any],
        summary: Dict[str, Any],
        *,
        extras: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store ``summary`` for ``key`` (atomic; params kept for humans).

        ``extras`` carries optional JSON-able side payloads (the telemetry
        audit section) without touching the summary schema the golden
        tests pin.

        Entries are compact: one line of JSON with sorted keys and no
        indentation. ``json.dumps`` without ``indent`` runs CPython's C
        encoder (with ``indent`` it falls back to the pure-Python one),
        which matters for probe entries carrying ledger, lineage and
        audit payloads. Pipe an entry through ``python -m json.tool`` to
        read it.

        Every entry is stamped with a ``provenance`` section (schema
        version, git SHA, the point's RNG seed, short code fingerprint)
        so registry ingest and post-hoc audits can attribute a cached
        point to the exact source tree and seed that produced it.
        Provenance is informational only — it never participates in the
        cache key or in hit/miss decisions.
        """
        from repro.util.provenance import git_sha

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            "params": params,
            "summary": summary,
            "provenance": {
                "schema": CACHE_FORMAT,
                "git_sha": git_sha(),
                "seed": params.get("seed"),
                "code_fingerprint": code_fingerprint()[:16],
            },
        }
        if extras is not None:
            entry["extras"] = extras
        with _profiler().phase("cache.put"):
            with atomic_write(path) as fh:
                fh.write(json.dumps(entry, sort_keys=True))

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self.root.glob("*/*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
