"""Run provenance: identifying *which code* produced an artifact.

Every long-lived artifact this repo writes (result-cache entries and
run-registry records) must be traceable back to the exact source tree
that produced it, or cross-run comparisons silently mix incomparable
numbers. This module centralises the two stamps:

* :func:`git_sha` — the short git SHA of the working tree (or
  ``unknown`` outside a repo); overridable via ``REPRO_GIT_SHA`` so CI
  and tests can pin it without a git checkout;
* :func:`utc_timestamp` — a compact ISO-8601 UTC stamp, injectable for
  deterministic tests.
"""

from __future__ import annotations

import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

__all__ = ["git_sha", "utc_timestamp"]

_sha_memo: Optional[str] = None


def git_sha() -> str:
    """Short git SHA of the working tree, or ``unknown`` outside a repo.

    ``REPRO_GIT_SHA`` overrides (always re-read — tests set it per
    case); the subprocess result is memoised per process.
    """
    env = os.environ.get("REPRO_GIT_SHA")
    if env:
        return env
    global _sha_memo
    if _sha_memo is not None:
        return _sha_memo
    import repro

    root = Path(repro.__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        _sha_memo = "unknown"
        return _sha_memo
    sha = out.stdout.strip()
    _sha_memo = sha if out.returncode == 0 and sha else "unknown"
    return _sha_memo


def utc_timestamp(now: Optional[datetime] = None) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` for ``now`` (default: the current UTC)."""
    dt = now if now is not None else datetime.now(timezone.utc)
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
