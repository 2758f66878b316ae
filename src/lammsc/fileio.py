"""Atomic file writes.

``atomic_open`` writes to a temporary file in the target's directory and
moves it over the target only once everything is written, so a reader never
sees a half-written file and a failed write leaves an existing file as it was.
It is the one place a failed write is mapped into the error taxonomy: any
``OSError`` on the way becomes ``LamMscError("cannot write <path>: ...")``.
"""

from __future__ import annotations

import contextlib
import os
import secrets

from .errors import LamMscError


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open ``<path>.<16 hex>.tmp`` for writing; on a clean exit it replaces
    ``path``, on any exception it is removed and the exception re-raised, an
    ``OSError`` as ``LamMscError``.

    ``mode`` is a write mode ("w" or "wb"); the temporary file is created
    exclusively, so it keeps the usual file mode.
    """
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "x" + mode[1:], **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise LamMscError(f"cannot write {path}: {exc}") from exc
        raise
