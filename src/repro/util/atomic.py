"""Atomic file writes: a temporary sibling renamed into place."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import IO, Iterator, Union

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(
    path: Union[str, "os.PathLike[str]"], suffix: str = ".tmp"
) -> Iterator[IO[str]]:
    """Write text to a temporary sibling of ``path``, then rename it there.

    Readers see either the complete previous file or the complete new
    one. If the body raises, the temporary file is removed and ``path``
    is untouched; a killed process leaves at most a stray ``*suffix``
    file, never a truncated ``path``.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=suffix)
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
