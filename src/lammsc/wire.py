"""Shared HTTP client plumbing for the remote MMA / LKB / embedding services.

All services speak JSON over POST and carry the protocol version in the
``X-Protocol-Version`` header. Failures map to a three-way taxonomy:
transport (unreachable/timeout), protocol (malformed message), and remote
(the service reported an error, or answered anything but 200; a redirect is
not followed). A reply body is decoded once, by ``fileio.json_object``.

Each thread keeps one keep-alive ``http.client`` connection per (scheme,
host), shared by every ``Endpoint`` it calls, so a run opens one connection
per server and thread, not one per call; at most ``MAX_HOSTS`` stay open per
thread, and they close when the thread ends. The proxy, CA bundle and netrc
credentials are read from the environment as ``requests`` reads them, once
when a connection opens: a variable changed mid-run applies to new
connections only. ``requests`` is used for nothing else.

The transport (``http.client``, ``ssl`` and ``requests``) loads on a run's
first connection, not at import, so a run on mock backends never loads it.
``wire.requests`` resolves lazily, through the module ``__getattr__``, only
because ``perfbench``'s tracer patches ``wire.requests.post``; ROADMAP items
2 and 3 (the tracer repair, then dropping ``requests``) remove it.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from dataclasses import dataclass
from urllib.parse import urlsplit

from .errors import ProtocolError, RemoteServiceError, TransportError
from .fileio import json_object

PROTOCOL_VERSION = "lam-msc/1"
VERSION_HEADER = "X-Protocol-Version"
MAX_HOSTS = 10  # connections a thread keeps open, as urllib3's pool manager
# Largest timeout_ms (about 24.8 days). CPython waits on a socket with poll(),
# whose timeout is a C int of milliseconds, so a larger one wraps modulo 2**32
# (4294967396 ms times out after 0.1 s); above about 9.22e12 ms, past the int64
# nanoseconds CPython keeps, settimeout raises OverflowError.
MAX_TIMEOUT_MS = 2 ** 31 - 1

_local = threading.local()


def __getattr__(name: str):
    """``wire.requests``, imported on first use; for the benchmark tracer only
    (PEP 562)."""
    if name == "requests":
        import requests
        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class Endpoint:
    """Base address (an http:// or https:// URL with a host) plus per-call
    timeout and retry budget."""

    base_url: str
    timeout_ms: int = 5000
    retries: int = 1

    def __post_init__(self):
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL with a "
                             f"host, got {self.base_url!r}")
        if not 0 < self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms must lie in 1..{MAX_TIMEOUT_MS}, "
                             f"got {self.timeout_ms}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(
        f"{user}:{password}".encode("latin1")).decode("ascii")


@dataclass
class _Route:
    """One open connection, and what each request on it sends."""

    conn: http.client.HTTPConnection
    prefix: str  # "http://host:port" through an HTTP proxy, else ""
    headers: dict


def _open(url: str) -> _Route:
    """A new connection for ``url``'s scheme and host, with the proxy, CA
    bundle and credentials the environment gives it now."""
    import http.client
    import ssl

    import requests

    parts = urlsplit(url)
    hostport = parts.netloc.rpartition("@")[2]
    utils = requests.utils
    headers = {"Content-Type": "application/json",
               VERSION_HEADER: PROTOCOL_VERSION}
    auth = utils.get_netrc_auth(url) or utils.get_auth_from_url(url)
    if any(auth):
        headers["Authorization"] = _basic_auth(*auth)
    proxy = utils.select_proxy(url, utils.get_environ_proxies(url))
    via, proxy_headers = hostport, {}
    if proxy:
        proxy = utils.prepend_scheme_if_needed(proxy, "http")
        pparts = urlsplit(proxy)
        if pparts.scheme != "http" or not pparts.hostname:
            raise http.client.InvalidURL(f"unsupported proxy {proxy!r}")
        via = pparts.netloc.rpartition("@")[2]
        user, password = utils.get_auth_from_url(proxy)
        if user:
            proxy_headers["Proxy-Authorization"] = _basic_auth(user, password)
    if parts.scheme == "http":
        headers.update(proxy_headers)
        return _Route(http.client.HTTPConnection(via),
                      f"http://{hostport}" if proxy else "", headers)
    ca = (os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
          or requests.certs.where())
    context = ssl.create_default_context(
        **{"capath" if os.path.isdir(ca) else "cafile": ca})
    conn = http.client.HTTPSConnection(via, context=context)
    if proxy:
        conn.set_tunnel(hostport, headers=proxy_headers)
    return _Route(conn, "", headers)


class _Routes(dict):
    """One thread's connections by (scheme, host), least recently used first;
    they close when the thread ends and its ``_local`` state is freed."""

    def __del__(self):
        for route in self.values():
            route.conn.close()


def _routes() -> _Routes:
    routes = getattr(_local, "routes", None)
    if routes is None:
        routes = _local.routes = _Routes()
    return routes


def post_json(ep: Endpoint, path: str, body: dict) -> dict:
    """POST a JSON body; returns the parsed 200 response or raises typed errors.

    A server may close a kept-alive connection just as the next request goes
    out on it. A failure other than a timeout on such a reused connection is
    resent once on a new connection without using up an attempt; every route
    is a pure function of its body, so the resend is safe.
    """
    import http.client

    url = ep.base_url.rstrip("/") + path
    parts = urlsplit(url)
    key = (parts.scheme, parts.netloc)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    blob = json.dumps(body, allow_nan=False).encode("utf-8")
    timeout = ep.timeout_ms / 1000.0
    routes = _routes()
    last_exc: Exception | None = None
    attempts = 0
    while attempts <= ep.retries:
        route = routes.pop(key, None)
        reused = route is not None and route.conn.sock is not None
        try:
            if not reused:  # a new connection reads the environment anew
                route = _open(url)
            routes[key] = route  # most recently used last
            if len(routes) > MAX_HOSTS:
                routes.pop(next(iter(routes))).conn.close()
            conn = route.conn
            if conn.timeout != timeout:
                conn.timeout = timeout
                if conn.sock is not None:
                    conn.sock.settimeout(timeout)
            conn.request("POST", route.prefix + target, blob, route.headers)
            resp = conn.getresponse()
            data = resp.read()  # a reply with will_close has closed conn
        except (OSError, http.client.HTTPException) as exc:
            if route is not None:
                route.conn.close()
            last_exc = exc
            attempts += not (reused and not isinstance(exc, TimeoutError))
            continue
        if resp.status != 200:
            try:
                reply = json_object(data, url)
                detail = str(reply.get("message") or reply.get("error") or "")
            except ValueError:
                detail = data.decode("utf-8", "replace")[:200]
            raise RemoteServiceError(f"{url}: status {resp.status}: {detail}")
        try:
            return json_object(data, f"{url}: response")
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    raise TransportError(f"{url}: unreachable after {ep.retries + 1} attempts "
                         f"({last_exc})")


def require_field(payload: dict, key: str, url_hint: str):
    if key not in payload:
        raise ProtocolError(f"{url_hint}: response is missing the {key!r} field")
    return payload[key]
