"""Shared HTTP client plumbing for the remote MMA / LKB / embedding services.

All services speak JSON over POST and carry the protocol version in the
``X-Protocol-Version`` header. Failures map to a three-way taxonomy:
transport (unreachable/timeout), protocol (malformed message), and remote
(the service reported an error, or answered anything but 200; a redirect is
not followed). A reply body is decoded once, by ``fileio.json_object``.

The client speaks HTTP/1.1 (RFC 9112) itself, on a socket with TCP_NODELAY
that ``ssl`` wraps for https. Each thread keeps one keep-alive connection
per (scheme, host), shared by every ``Endpoint`` it calls, so a run opens
one connection per server and thread, not one per call; at most
``MAX_HOSTS`` stay open per thread, and they close when the thread ends.

- A request goes out in one write. Its head is built once per connection:
  the request line (with the absolute URL through an HTTP proxy), ``Host``
  (the host and port as the URL writes them), ``Accept-Encoding:
  identity``, ``Content-Length``, ``Content-Type``, ``X-Protocol-Version``,
  then ``Authorization`` and ``Proxy-Authorization`` when there are
  credentials. https through a proxy first opens a ``CONNECT`` tunnel.
- The reply reader skips interim 1xx replies other than 101. It takes at
  most ``MAX_HEADERS`` header lines of at most ``MAX_LINE`` bytes each, the
  limits the mock server sets a request. The body is framed by
  ``Transfer-Encoding: chunked``, else by ``Content-Length``, else by the
  end of the stream. ``Connection: close``, an HTTP/1.0 reply without
  keep-alive, or a body that runs to the end of the stream closes the
  connection after the reply.
- A reply that breaks these rules, or a stream that ends inside one, is a
  transport failure, counted as a socket error is.

The proxy, CA bundle and credentials are read from the environment once,
when a connection opens, so a variable changed mid-run applies to new
connections only:

- the proxy is ``urllib.request.getproxies()``'s entry for the scheme, else
  ``all`` (``http://`` is put before one given without a scheme), unless
  ``urllib.request.proxy_bypass`` exempts the host (a name with its port,
  as the URL writes them); a ``NO_PROXY`` entry that is a network, such as
  ``127.0.0.0/8``, also exempts an IPv4-literal host in it;
- the CA bundle is ``REQUESTS_CA_BUNDLE``, else ``CURL_CA_BUNDLE`` (a
  directory is read as a CA path), else OpenSSL's default store, which
  ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` can name;
- ``Authorization`` comes from netrc (``$NETRC``, else ``~/.netrc``, else
  ``~/_netrc``: the host's login, else its account, and password), else
  from the URL's user and password, percent-decoded and only when both are
  given; a proxy URL's user and password give ``Proxy-Authorization`` by
  the same rule.

These are the rules ``requests`` applied, except two: the CA default was
its bundled one, and ``NO_PROXY`` named an IPv6-literal host without its
brackets. The transport loads on a run's first connection, not at import,
so a run on mock backends never loads it: ``socket``, ``urllib.request``
for the proxy rules, and ``ssl`` for https only. The runtime needs numpy
alone. ``wire.requests`` resolves lazily, through the module
``__getattr__``, only because ``perfbench``'s tracer patches
``wire.requests.post``; it needs ``requests`` from the ``test`` extra, and
goes with ROADMAP item 3 once the tracer is repaired (item 2).
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING
from urllib.parse import unquote, urlsplit

from .errors import ProtocolError, RemoteServiceError, TransportError
from .fileio import json_object

if TYPE_CHECKING:  # the transport imports these on its first connection
    import io
    import socket

PROTOCOL_VERSION = "lam-msc/1"
VERSION_HEADER = "X-Protocol-Version"
MAX_HOSTS = 10  # connections a thread keeps open, as urllib3's pool manager
# Largest timeout_ms (about 24.8 days). CPython waits on a socket with poll(),
# whose timeout is a C int of milliseconds, so a larger one wraps modulo 2**32
# (4294967396 ms times out after 0.1 s); above about 9.22e12 ms, past the int64
# nanoseconds CPython keeps, settimeout raises OverflowError.
MAX_TIMEOUT_MS = 2 ** 31 - 1
MAX_LINE = 65536  # bytes in a start or header line of a request or reply
MAX_HEADERS = 100  # header lines in a request or reply

_local = threading.local()


def __getattr__(name: str):
    """``wire.requests``, imported on first use; for the benchmark tracer only
    (PEP 562). ``requests`` is not a runtime dependency: it comes with the
    ``test`` extra."""
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
        try:
            parts.port  # noqa: B018 - raises on a port that is not 0..65535
        except ValueError as exc:
            raise ValueError(f"endpoint {self.base_url!r}: {exc}") from None
        if any(c <= " " or c == "\x7f" for c in self.base_url):  # breaks the request line
            raise ValueError(f"endpoint must not hold a space or control character, "
                             f"got {self.base_url!r}")
        if not 0 < self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms must lie in 1..{MAX_TIMEOUT_MS}, "
                             f"got {self.timeout_ms}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(
        f"{user}:{password}".encode("latin1")).decode("ascii")


def _userinfo(parts) -> tuple[str, str]:
    """A URL's percent-decoded user and password; ("", "") unless it has both."""
    both = parts.username is not None and parts.password is not None
    return (unquote(parts.username), unquote(parts.password)) if both else ("", "")


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """The login (else the account) and password that netrc gives ``host``,
    from ``$NETRC``, else from the first of ``~/.netrc`` and ``~/_netrc``
    that exists. None when there is no entry or the file cannot be read or
    parsed."""
    import netrc

    names = [os.environ["NETRC"]] if "NETRC" in os.environ else ["~/.netrc", "~/_netrc"]
    path = next((p for p in map(os.path.expanduser, names) if os.path.exists(p)), None)
    with contextlib.suppress(netrc.NetrcParseError, OSError):
        entry = path and netrc.netrc(path).authenticators(host)
        return (entry[0] or entry[1], entry[2]) if entry and any(entry) else None


def _proxy(parts, hostport: str) -> str | None:
    """The proxy the environment gives a URL: the one for its scheme, else
    ``all``; None if there is none or ``NO_PROXY`` exempts the host. A name
    is matched by the standard library's rule on ``hostport``, the host and
    port as the URL writes them; an IPv4 literal by that rule on the host
    alone, or by an entry that is a network holding it, such as
    ``127.0.0.0/8``."""
    import ipaddress
    import urllib.request

    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    try:
        ip = ipaddress.IPv4Address(parts.hostname)
    except ValueError:
        return None if urllib.request.proxy_bypass(hostport) else proxy
    for entry in proxies.get("no", "").replace(" ", "").split(","):
        with contextlib.suppress(ValueError):  # not a network
            if ip in ipaddress.IPv4Network(entry, strict=False):
                return None
    return None if urllib.request.proxy_bypass(parts.hostname) else proxy


class _Fault(OSError):
    """A transport failure that is not the socket's: a reply that breaks
    RFC 9112's framing or ends early, a refused tunnel, an unusable proxy."""


def _line(rfile) -> bytes:
    """One LF-ended line of at most ``MAX_LINE`` bytes."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise _Fault(f"reply line longer than {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise _Fault("the connection closed inside a reply")
    return line


def _status(rfile) -> tuple[bytes, int, str]:
    """A status line's version, code and reason phrase."""
    line = _line(rfile)
    version, code, reason = (line.split(None, 2) + [b"", b""])[:3]
    if not (version.startswith(b"HTTP/1.") and len(code) == 3 and code.isdigit()
            and code >= b"100"):
        raise _Fault(f"malformed status line {line[:80]!r}")
    return version, int(code), reason.strip().decode("latin-1")


def _fields(rfile) -> dict:
    """Header (or trailer) lines up to the empty line, at most ``MAX_HEADERS``,
    by lower-cased name; a repeated field's values are joined by ", "."""
    fields = {}
    for _ in range(MAX_HEADERS + 1):
        line = _line(rfile)
        if line in (b"\r\n", b"\n"):
            return fields
        name, _, value = line.partition(b":")
        key, value = name.strip().lower(), value.strip()
        fields[key] = fields[key] + b", " + value if key in fields else value
    raise _Fault(f"more than {MAX_HEADERS} header lines")


def _read(rfile, size: int) -> bytes:
    """Exactly ``size`` bytes, read at most 1 MiB at a time, so that a false
    length costs no more memory than the bytes that arrive."""
    parts = []
    while size > 0:
        part = rfile.read(min(size, 1 << 20))
        if not part:
            raise _Fault("the connection closed inside a reply body")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _length(value: bytes) -> int:
    """A Content-Length value; a repeated field's values must agree."""
    texts = {text.strip() for text in value.split(b",")}
    text = texts.pop()
    if texts or not text.isdigit() or len(text) > 18:  # 18 digits: under 1 EB
        raise _Fault(f"malformed Content-Length {value[:80]!r}")
    return int(text)


def _chunked(rfile) -> bytes:
    """A chunked body; chunk extensions and the trailer section are dropped."""
    parts = []
    while True:
        line = _line(rfile)
        digits = line.partition(b";")[0].strip()
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise _Fault(f"malformed chunk size line {line[:80]!r}")
        if not (size := int(digits, 16)):
            _fields(rfile)
            return b"".join(parts)
        parts.append(_read(rfile, size))
        if _line(rfile) not in (b"\r\n", b"\n"):
            raise _Fault("chunk data longer than its size")


def _reply(rfile) -> tuple[int, bytes, bool]:
    """Read one reply: its status, its body and whether the connection must
    close after it. Interim 1xx replies other than 101 are skipped."""
    while True:
        version, status, _ = _status(rfile)
        fields = _fields(rfile)
        if status >= 200 or status == 101:
            break
    tokens = {t.strip() for t in fields.get(b"connection", b"").lower().split(b",")}
    close = b"close" in tokens or (version == b"HTTP/1.0" and b"keep-alive" not in tokens)
    if status in (101, 204, 304):  # no body (RFC 9112 6.3)
        return status, b"", close or status == 101
    coding = fields.get(b"transfer-encoding")
    if coding is None and b"content-length" in fields:
        return status, _read(rfile, _length(fields[b"content-length"])), close
    if coding is not None and coding.rpartition(b",")[2].strip().lower() == b"chunked":
        return status, _chunked(rfile), close
    return status, rfile.read(), True  # the body runs to the end of the stream


def _tunnel(sock, authority: str, proxy_header: str):
    """Ask the HTTP proxy at the other end of ``sock`` for a tunnel."""
    sock.sendall(f"CONNECT {authority} HTTP/1.0\r\n{proxy_header}\r\n".encode("ascii"))
    with sock.makefile("rb") as rfile:
        _, status, reason = _status(rfile)
        if status != 200:
            raise _Fault(f"Tunnel connection failed: {status} {reason}")
        _fields(rfile)


@dataclass
class _Route:
    """One open connection, its reply reader, and the head of each request on
    it, with ``%b`` for the target and ``%d`` for the Content-Length."""

    sock: socket.socket  # an ssl.SSLSocket for https
    rfile: io.BufferedReader
    head: bytes

    def close(self):
        self.rfile.close()
        self.sock.close()


def _open(url: str, timeout: float) -> _Route:
    """A new connection for ``url``'s scheme and host, with the proxy, CA
    bundle and credentials the environment gives it now."""
    import socket

    parts = urlsplit(url)
    hostport = parts.netloc.rpartition("@")[2]
    # the host and port as the URL writes them; a name outside ASCII as IDNA
    authority = hostport if hostport.isascii() else hostport.encode("idna").decode()
    headers = f"Content-Type: application/json\r\n{VERSION_HEADER}: {PROTOCOL_VERSION}\r\n"
    auth = _netrc_auth(parts.hostname) or _userinfo(parts)
    if any(auth):
        headers += f"Authorization: {_basic_auth(*auth)}\r\n"
    default_port = 80 if parts.scheme == "http" else 443
    via = (parts.hostname, default_port if parts.port is None else parts.port)
    proxy_header = ""
    if proxy := _proxy(parts, hostport):
        proxy = proxy if "://" in proxy else "http://" + proxy
        pparts = urlsplit(proxy)
        try:
            port = 80 if pparts.port is None else pparts.port
        except ValueError:  # a port that is not 0..65535
            port = None
        if pparts.scheme != "http" or not pparts.hostname or port is None:
            raise _Fault(f"unsupported proxy {proxy!r}")
        via = (pparts.hostname, port)
        if (proxy_auth := _userinfo(pparts))[0]:
            proxy_header = f"Proxy-Authorization: {_basic_auth(*proxy_auth)}\r\n"
    context = None
    if parts.scheme == "https":
        import ssl

        ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        where = {"capath" if os.path.isdir(ca) else "cafile": ca} if ca else {}
        context = ssl.create_default_context(**where)
    else:
        headers += proxy_header
    sock = socket.create_connection(via, timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if context is not None:
            if proxy:
                _tunnel(sock, authority if parts.port is not None else f"{authority}:443",
                        proxy_header)
            sock = context.wrap_socket(sock, server_hostname=parts.hostname)
    except BaseException:
        sock.close()
        raise
    host = authority.replace("%", "%%")  # an IPv6 zone holds "%"; the head is a format
    prefix = f"http://{host}" if proxy and context is None else ""
    head = (f"POST {prefix}%b HTTP/1.1\r\nHost: {host}\r\n"
            f"Accept-Encoding: identity\r\nContent-Length: %d\r\n{headers}\r\n")
    return _Route(sock, sock.makefile("rb"), head.encode("ascii"))


class _Routes(dict):
    """One thread's connections by (scheme, host), least recently used first;
    they close when the thread ends and its ``_local`` state is freed."""

    def __del__(self):
        for route in self.values():
            route.close()


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
    url = ep.base_url.rstrip("/") + path
    parts = urlsplit(url)
    key = (parts.scheme, parts.netloc)
    target = ((parts.path or "/") + (f"?{parts.query}" if parts.query else "")).encode("ascii")
    blob = json.dumps(body, allow_nan=False).encode("utf-8")
    timeout = ep.timeout_ms / 1000.0
    routes = _routes()
    last_exc: Exception | None = None
    attempts = 0
    while attempts <= ep.retries:
        route = routes.pop(key, None)
        reused = route is not None
        try:
            if not reused:  # a new connection reads the environment anew
                route = _open(url, timeout)
            elif route.sock.gettimeout() != timeout:
                route.sock.settimeout(timeout)
            route.sock.sendall(route.head % (target, len(blob)) + blob)
            status, data, close = _reply(route.rfile)
        except BaseException as exc:  # a connection cut mid-reply is not reused
            if route is not None:
                route.close()
            if not isinstance(exc, OSError):
                raise
            last_exc = exc
            attempts += not (reused and not isinstance(exc, TimeoutError))
            continue
        if close:
            route.close()
        else:
            routes[key] = route  # most recently used last
            if len(routes) > MAX_HOSTS:
                routes.pop(next(iter(routes))).close()
        if status != 200:
            try:
                reply = json_object(data, url)
                detail = str(reply.get("message") or reply.get("error") or "")
            except ValueError:
                detail = data.decode("utf-8", "replace")[:200]
            raise RemoteServiceError(f"{url}: status {status}: {detail}")
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
