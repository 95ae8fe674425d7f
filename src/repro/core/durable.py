"""Atomic file writes: the one place the program replaces a file.

Checkpoints, shard reports, fleet status files, converted traces and
cached experiment results are all read by another process (or the next
run) while, or after, this one writes them.  Each goes out through
:func:`atomic_write`: the bytes land in a temporary sibling, which
``os.replace`` renames over the destination only when the block exits
cleanly.  A reader therefore sees the old file or the new one, never a
torn one, and a crash mid-write leaves the old file in place.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Union


@contextmanager
def atomic_write(path: Union[str, Path],
                 durable: bool = False) -> Iterator[BinaryIO]:
    """Yield a binary handle whose bytes replace ``path`` atomically.

    The handle writes to an ``mkstemp`` sibling named
    ``<name>.<random>.tmp``, so two writers open on one destination
    never share a temporary file; the one that exits last wins.  On a
    clean exit the handle is flushed and renamed over ``path``.  With
    ``durable`` the file is fsynced before the rename and the directory
    after it, so the new name survives a power loss too (the directory
    fsync is best-effort where the platform refuses it).  On any
    exception the temporary file is removed and the exception
    re-raised; ``path`` keeps its previous bytes.
    """
    target = os.path.abspath(path)
    directory, name = os.path.split(target)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"{name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # best-effort tmp cleanup; the original error re-raises below
            pass
        raise
    if durable:
        _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover  # dir fsync is best-effort on platforms without it
        pass
    finally:
        os.close(fd)
