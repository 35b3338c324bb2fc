"""JSON (de)serialisation of LB views and decisions.

For debugging a production balancer you want to capture the exact
:class:`~repro.core.database.LBView` a step saw and replay it offline
against candidate strategies. These helpers give every view/migration a
stable, human-readable JSON form:

* :func:`view_to_dict` / :func:`view_from_dict` — lossless round-trip of
  an ``LBView`` including task communication records;
* :func:`migrations_to_dict` / :func:`migrations_from_dict` — the
  decision list;
* :func:`dump_view` / :func:`load_view` — file convenience wrappers.

Example — capture and replay::

    dump_view(view, "step17.json")
    ...
    view = load_view("step17.json")
    for lb in candidates:
        print(lb.name, lb.balance(view))
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.core.database import (
    ChareKey,
    CoreLoad,
    LBView,
    Migration,
    TaskRecord,
)

__all__ = [
    "view_to_dict",
    "view_from_dict",
    "migrations_to_dict",
    "migrations_from_dict",
    "dump_view",
    "load_view",
]

_FORMAT_VERSION = 1


def _key_to_list(key: ChareKey) -> List[Any]:
    return [key[0], key[1]]


def _key_from_list(data: Sequence[Any]) -> ChareKey:
    if len(data) != 2 or not isinstance(data[0], str):
        raise ValueError(f"malformed chare key {data!r}")
    return (data[0], int(data[1]))


def view_to_dict(view: LBView) -> Dict[str, Any]:
    """Lossless dict form of an :class:`LBView`."""
    return {
        "format": _FORMAT_VERSION,
        "window": view.window,
        "cores": [
            {
                "core_id": c.core_id,
                "bg_load": c.bg_load,
                "tasks": [
                    {
                        "chare": _key_to_list(t.chare),
                        "cpu_time": t.cpu_time,
                        "state_bytes": t.state_bytes,
                        "comm": [
                            [_key_to_list(other), nbytes]
                            for other, nbytes in t.comm
                        ],
                    }
                    for t in c.tasks
                ],
            }
            for c in view.cores
        ],
    }


def view_from_dict(data: Dict[str, Any]) -> LBView:
    """Rebuild an :class:`LBView` from :func:`view_to_dict` output.

    Validates the format version and re-runs every record's construction
    checks, so corrupted captures fail loudly.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported LBView capture format {data.get('format')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    cores = []
    for c in data["cores"]:
        tasks = tuple(
            TaskRecord(
                chare=_key_from_list(t["chare"]),
                cpu_time=float(t["cpu_time"]),
                state_bytes=float(t.get("state_bytes", 0.0)),
                comm=tuple(
                    (_key_from_list(other), float(nbytes))
                    for other, nbytes in t.get("comm", [])
                ),
            )
            for t in c["tasks"]
        )
        cores.append(
            CoreLoad(
                core_id=int(c["core_id"]),
                tasks=tasks,
                bg_load=float(c.get("bg_load", 0.0)),
            )
        )
    return LBView(cores=tuple(cores), window=float(data["window"]))


def migrations_to_dict(migrations: Sequence[Migration]) -> List[Dict[str, Any]]:
    """Dict form of a migration list."""
    return [
        {"chare": _key_to_list(m.chare), "src": m.src, "dst": m.dst}
        for m in migrations
    ]


def migrations_from_dict(data: Sequence[Dict[str, Any]]) -> List[Migration]:
    """Rebuild migrations from :func:`migrations_to_dict` output."""
    return [
        Migration(
            chare=_key_from_list(m["chare"]), src=int(m["src"]), dst=int(m["dst"])
        )
        for m in data
    ]


def dump_view(view: LBView, path: str) -> None:
    """Write ``view`` to ``path`` as JSON."""
    with open(path, "w") as fh:
        json.dump(view_to_dict(view), fh, indent=1)


def load_view(path: str) -> LBView:
    """Read an :class:`LBView` from a JSON capture."""
    with open(path) as fh:
        return view_from_dict(json.load(fh))
