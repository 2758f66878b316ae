"""Atomic file writes and the framed binary file layout.

``atomic_open`` writes to a temporary file in the target's directory and
moves it over the target only once everything is written, so a reader never
sees a half-written file and a failed write leaves an existing file as it was.
``check_writable`` makes the same temporary file and removes it, so a writer
can fail before its work instead of at its save. Both map a failed write into
the error taxonomy in one place: any ``OSError`` on the way becomes
``LamMscError("cannot write <path>: ...")``.

The CGE model (``CGE1``) and channel dataset (``LMCH``) files share one
frame: 4 bytes magic, 1 byte version, little-endian uint32 header length,
the UTF-8 JSON header (sorted keys, no spaces), then the body.
``write_framed`` writes one through ``atomic_open``; ``read_framed`` checks
the frame and maps every fault in it to ``FormatError``.

``json_object`` is the one JSON decoder for data from outside: config
files, scene records, framed-file headers, service replies and mock-server
requests. It turns every decode fault into one ``ValueError`` that each
caller maps to its own typed error.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import secrets
import struct

from .errors import FormatError, LamMscError


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


def json_object(data: bytes | str, what: str) -> dict:
    """Parse ``data`` (UTF-8 bytes, or text) as one JSON object; bad UTF-8, bad
    JSON, nesting deeper than the parser goes and any value that is not an
    object raise ``ValueError`` starting with ``what``."""
    try:
        value = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{what}: invalid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{what}: not a JSON object")
    return value


def write_framed(path, magic: bytes, version: int, header: dict, chunks) -> None:
    """Write one framed file atomically; ``chunks`` are the body's byte
    strings in order."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(magic + struct.pack("<BI", version, len(blob)))
        fh.write(blob)
        for chunk in chunks:
            fh.write(chunk)


def read_framed(path, magic: bytes, version: int, kind: str) -> tuple[dict, bytes]:
    """Check the frame of a ``kind`` file; return its parsed header and body."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise FormatError(f"{path}: cannot read {kind} file ({exc})") from exc
    if len(blob) < 9 or blob[:4] != magic:
        raise FormatError(f"{path}: not a {kind} file (bad magic)")
    if blob[4] != version:
        raise FormatError(f"{path}: unsupported {kind} version {blob[4]} "
                          f"(expected {version})")
    (hlen,) = struct.unpack("<I", blob[5:9])
    if len(blob) < 9 + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json_object(blob[9:9 + hlen], f"{path}: malformed {kind} header")
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return header, blob[9 + hlen:]
