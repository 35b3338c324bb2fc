"""Atomic file writes: a temporary sibling renamed into place."""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from typing import IO, Any, Iterator, Mapping, Union

__all__ = ["atomic_write", "atomic_write_json"]

_CREATE_FLAGS = (
    os.O_WRONLY
    | os.O_CREAT
    | os.O_EXCL
    | getattr(os, "O_NOFOLLOW", 0)
    | getattr(os, "O_CLOEXEC", 0)
)


@contextmanager
def atomic_write(
    path: Union[str, "os.PathLike[str]"], suffix: str = ".tmp"
) -> Iterator[IO[str]]:
    """Write text to a temporary sibling of ``path``, then rename it there.

    Readers see either the complete previous file or the complete new
    one. If the body raises, the temporary file is removed and ``path``
    is untouched; a killed process leaves at most a stray ``*suffix``
    file, never a truncated ``path``. The file gets the mode a new file
    written by ``open(path, "w")`` gets: ``0666`` less the umask.
    """
    path = os.fspath(path)
    tmp = os.path.join(
        os.path.dirname(path) or ".", f"tmp{secrets.token_hex(8)}{suffix}"
    )
    # requested as 0666, as open(path, "w") does, so the kernel applies
    # the umask alike (tempfile.mkstemp always creates 0600)
    fd = os.open(tmp, _CREATE_FLAGS, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: Union[str, "os.PathLike[str]"], payload: Mapping[str, Any]
) -> None:
    """Atomically write ``payload`` as one indented, key-sorted JSON document.

    The file text is ``json.dumps(payload, indent=1, sort_keys=True)``
    plus a newline. The parent directory is created if missing.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
