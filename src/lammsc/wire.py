"""Shared HTTP client plumbing for the remote MMA / LKB / embedding services.

All services speak JSON over POST and carry the protocol version in the
``X-Protocol-Version`` header. Failures map to a three-way taxonomy:
transport (unreachable/timeout), protocol (malformed message), and remote
(the service reported an error). A reply body is decoded once, by
``fileio.json_object``.

Each thread keeps one keep-alive ``requests.Session``, shared by every
``Endpoint`` it calls, so a run opens one connection per server and thread,
not one per call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from urllib.parse import urlsplit

import requests

from .errors import ProtocolError, RemoteServiceError, TransportError
from .fileio import json_object

PROTOCOL_VERSION = "lam-msc/1"
VERSION_HEADER = "X-Protocol-Version"

_local = threading.local()


@dataclass
class Endpoint:
    """Base address plus per-call timeout and retry budget."""

    base_url: str
    timeout_ms: int = 5000
    retries: int = 1

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be positive, got {self.timeout_ms}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")


def _session() -> tuple[requests.Session, set[str]]:
    """This thread's session, and the hosts whose last reply left a pooled
    connection open."""
    if not hasattr(_local, "session"):
        _local.session, _local.kept = requests.Session(), set()
    return _local.session, _local.kept


def post_json(ep: Endpoint, path: str, body: dict) -> dict:
    """POST a JSON body; returns the parsed 200 response or raises typed errors.

    A server may close a kept-alive connection just as the next request goes
    out on it. A connection error on such a reused connection is resent once
    on a new connection without using up an attempt; every route is a pure
    function of its body, so the resend is safe.
    """
    url = ep.base_url.rstrip("/") + path
    host = urlsplit(url).netloc
    session, kept = _session()
    last_exc: Exception | None = None
    attempts = 0
    while attempts <= ep.retries:
        reused = host in kept
        kept.discard(host)
        try:
            resp = session.post(url, json=body, timeout=ep.timeout_ms / 1000.0,
                                headers={VERSION_HEADER: PROTOCOL_VERSION})
        except requests.RequestException as exc:
            last_exc = exc
            attempts += not (reused and isinstance(exc, requests.ConnectionError))
            continue
        if (resp.raw.version == 11
                and "close" not in resp.headers.get("Connection", "").lower()):
            kept.add(host)
        if resp.status_code != 200:
            try:
                reply = json_object(resp.content, url)
                detail = str(reply.get("message") or reply.get("error") or "")
            except ValueError:
                detail = resp.text[:200]
            raise RemoteServiceError(f"{url}: status {resp.status_code}: {detail}")
        try:
            return json_object(resp.content, f"{url}: response")
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    raise TransportError(f"{url}: unreachable after {ep.retries + 1} attempts "
                         f"({last_exc})")


def require_field(payload: dict, key: str, url_hint: str):
    if key not in payload:
        raise ProtocolError(f"{url_hint}: response is missing the {key!r} field")
    return payload[key]
