"""Atomic file writes.

``atomic_open`` writes to a temporary file in the target's directory and
moves it over the target only once everything is written, so a reader never
sees a half-written file and a failed write leaves an existing file as it was.
``check_writable`` makes the same temporary file and removes it, so a writer
can fail before its work instead of at its save. Both map a failed write into
the error taxonomy in one place: any ``OSError`` on the way becomes
``LamMscError("cannot write <path>: ...")``.
"""

from __future__ import annotations

import contextlib
import errno
import os
import secrets

from .errors import LamMscError


@contextlib.contextmanager
def _temp_beside(path, mode: str, **kwargs):
    """Create ``<path>.<16 hex>.tmp`` exclusively, so it keeps the usual file
    mode, and yield (its name, its open file); the file is removed unless the
    body moved it away, and an ``OSError`` is re-raised as ``LamMscError``."""
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "x" + mode[1:], **kwargs) as fh:
            yield tmp, fh
    except OSError as exc:
        raise LamMscError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit it
    replaces ``path``, on any exception it is removed and the exception
    re-raised, an ``OSError`` as ``LamMscError``.

    ``mode`` is a write mode ("w" or "wb").
    """
    with _temp_beside(path, mode, **kwargs) as (tmp, fh):
        yield fh
        fh.close()
        os.replace(tmp, path)


def check_writable(path) -> None:
    """Raise the ``LamMscError`` a write to ``path`` would, before any work."""
    with _temp_beside(path, "wb"):
        if os.path.isdir(path):  # os.replace would fail only at the save
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    os.fspath(path))
