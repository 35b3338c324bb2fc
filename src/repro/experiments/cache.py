"""On-disk result cache for scenario sweeps.

A sweep re-run with the same spec should not re-simulate anything: every
scenario's summary is cached on disk under a key derived from

* the **canonical scenario parameters** (the normalised point dict the
  sweep engine builds scenarios from), and
* a **code fingerprint** — a SHA-256 over every ``repro`` source file —
  so any change to the simulator automatically invalidates all entries
  (stale results can never be served after a code edit).

Each point is one JSON entry ``<key[:2]>/<key>.json`` holding its
summary, and each probe payload stored for it (``audit``, ``ledger``,
``lineage``) is a file of its own beside it, ``<key>.<probe>.json``, so
a probe sweep's hit parses the small entry and only the payloads it
asked for. Every file is written atomically (tmp file + ``os.replace``),
so concurrent workers and interrupted runs can never leave a truncated
file that later parses as a result. A corrupt, unreadable or mismatched
entry is a miss; the same fault in a payload file is a miss for that
probe only.

The default location is ``.repro-cache/sweeps`` under the current
directory; override per call or with ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

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
CACHE_FORMAT = 2

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
    """Content-addressed store of scenario summaries and probe payloads.

    A point's entry and its payload files share the key and nothing
    else: writing one payload leaves the others alone, and reading one
    opens no other file.

    Parameters
    ----------
    root:
        Directory holding the entries (created lazily on first write).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def _path(self, key: str, probe: Optional[str] = None) -> Path:
        # two-level fan-out keeps directories small on big sweeps
        name = key if probe is None else f"{key}.{probe}"
        return self.root / key[:2] / f"{name}.json"

    def _load(self, path: Path, key: str) -> Optional[Dict[str, Any]]:
        """The document at ``path`` if it is a readable file of ``key``."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("format") != CACHE_FORMAT
            or doc.get("key") != key
        ):
            return None
        return doc

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached summary dict for ``key``, or None on a miss."""
        entry = self._load(self._path(key), key)
        if entry is None:
            return None
        summary = entry.get("summary")
        return summary if isinstance(summary, dict) else None

    def get_extras(
        self, key: str, names: Optional[Iterable[str]] = None
    ) -> Dict[str, Any]:
        """The stored probe payloads of ``key`` among ``names``.

        Returns ``{probe: payload}`` for every name in ``names`` (every
        stored probe when None) whose payload file is present and
        intact; a missing, corrupt or mismatched file is simply absent,
        and callers needing it treat that as a miss. Only the requested
        payload files are opened, never the entry or another probe's
        payload.
        """
        if names is None:
            names = sorted(
                path.name[len(key) + 1 : -len(".json")]
                for path in self._path(key).parent.glob(f"{key}.*.json")
            )
        extras: Dict[str, Any] = {}
        for name in names:
            doc = self._load(self._path(key, name), key)
            if doc is not None and "payload" in doc:
                extras[name] = doc["payload"]
        return extras

    def get_provenance(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry's provenance stamp, or None (pre-stamp entries)."""
        entry = self._load(self._path(key), key)
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

        ``extras`` maps probe names to JSON-able payloads (the LB audit,
        the time ledger, the lineage); each is written to its own file
        ``<key>.<probe>.json``, which carries the key and format like
        the entry does. Payload files of probes not in ``extras`` are
        left as they are, so one probe sweep never rewrites or evicts
        another's payload, and the summary schema the golden tests pin
        stays untouched.

        Files are compact: one line of JSON with sorted keys and no
        indentation. ``json.dumps`` without ``indent`` runs CPython's C
        encoder (with ``indent`` it falls back to the pure-Python one),
        which matters for the ledger, lineage and audit payloads. Pipe a
        file through ``python -m json.tool`` to read it.

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
        for probe, payload in (extras or {}).items():
            doc = {"format": CACHE_FORMAT, "key": key, "payload": payload}
            with atomic_write(self._path(key, probe)) as fh:
                fh.write(json.dumps(doc, sort_keys=True))
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
        with atomic_write(path) as fh:
            fh.write(json.dumps(entry, sort_keys=True))

    def __len__(self) -> int:
        """Number of cached points (payload files are not counted)."""
        return sum(1 for p in self.root.glob("*/*.json") if "." not in p.stem)

    def clear(self) -> int:
        """Delete every entry and payload file; returns the points removed."""
        removed = 0
        for path in list(self.root.glob("*/*.json")):
            try:
                path.unlink()
            except OSError:
                continue
            if "." not in path.stem:
                removed += 1
        return removed
