"""In-process mock endpoints implementing the wire contracts.

Routes (all POST, JSON bodies, version header ``lam-msc/1``):

  /transform    {source_modality, target_modality, data: base64}
                -> {target_modality, data: base64}
                Runs the deterministic scene codec, so remote-mode pipeline
                runs match mock-mode runs byte for byte.
  /personalize  {prompt} -> {text}
                Echo contract: returns the user text embedded in the prompt,
                everything after its first ``Text:`` line (lkb.prompt_text).
  /embed        {text} -> {vector}
                The built-in hashed-trigram embedder.

Failures answer {error, message} with a 4xx or 5xx status. The server speaks
HTTP/1.1 (RFC 9112) on its own request loop and keeps connections open:

- It reads the request line and header lines itself, splitting each header
  line at its first colon. A line longer than 65536 bytes, more than 100
  header lines, a header line without a colon (or with whitespace in or
  around its name) or a request line that is not ``METHOD target
  HTTP/1.0|1.1`` gets a 400, and the connection closes.
- A method other than POST gets a 501, and the connection closes.
- A request whose body cannot be framed (no valid Content-Length, or a
  Transfer-Encoding) is answered with a 400, and its connection closes.
  A Content-Length over 16 MiB gets a 413, with no ``100 Continue`` and
  without its body being read, and the connection closes.
  ``Expect: 100-continue`` is answered with ``100 Continue`` before the
  body is read. The whole body is read before any reply, so a 400 or 404
  leaves a kept-alive connection framed.
- An HTTP/1.0 request closes its connection after the reply unless it
  asks for ``Connection: keep-alive``; ``Connection: close`` closes one of
  either version. Pipelined requests are answered in order.
- Each reply's status line, headers and body go out in one write, with
  TCP_NODELAY set.
- A client that goes away ends its connection quietly: a body cut short
  by the end of the stream gets no reply, and a failed write ends the
  connection. A 500 answers a fault in a route handler only.
"""

from __future__ import annotations

import base64
import binascii
import json
import socket
import socketserver
import threading
from email.utils import formatdate
from http import HTTPStatus

from . import lkb, mma, semeval
from .errors import CaptionParseError
from .fileio import json_object
from .wire import MAX_HEADERS, MAX_LINE, PROTOCOL_VERSION, VERSION_HEADER

_MAX_BODY = 16 << 20  # bytes in a request body, far above any the program sends


class _BadRequest(ValueError):
    pass


def _handle_transform(body: dict) -> dict:
    try:
        source = body["source_modality"]
        target = body["target_modality"]
        raw = base64.b64decode(body["data"], validate=True)
    except (KeyError, TypeError, binascii.Error) as exc:
        raise _BadRequest(f"malformed transform request: {exc}") from exc
    if target == "text":
        if source not in mma.MODALITIES:
            raise _BadRequest(f"cannot transform {source!r} to text")
        try:
            scene = mma.scene_from_json(raw)
        except ValueError as exc:
            raise _BadRequest(f"payload is not a scene record: {exc}") from exc
        out = mma.scene_to_text(scene).encode("utf-8")
    elif source == "text" and target in mma.MODALITIES:
        try:
            scene = mma.text_to_scene(raw.decode("utf-8"), modality=target)
        except (CaptionParseError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"caption does not parse: {exc}") from exc
        out = mma.scene_to_json(scene).encode("utf-8")
    else:
        raise _BadRequest(f"unsupported transform {source!r} -> {target!r}")
    return {"target_modality": target,
            "data": base64.b64encode(out).decode("ascii")}


def _handle_personalize(body: dict) -> dict:
    prompt = body.get("prompt")
    if not isinstance(prompt, str):
        raise _BadRequest("request needs a string 'prompt' field")
    return {"text": lkb.prompt_text(prompt)}


def _handle_embed(body: dict) -> dict:
    text = body.get("text")
    if not isinstance(text, str):
        raise _BadRequest("request needs a string 'text' field")
    return {"vector": semeval.embed(text).values.tolist()}


_ROUTES = {"/transform": _handle_transform,
           "/personalize": _handle_personalize,
           "/embed": _handle_embed}


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read each request's line and headers, answer it, and
    go on until the client or a framing rule ends the connection."""

    # a reply goes out as one write, but one that follows an unacknowledged
    # write (a 100 Continue, a pipelined reply) would wait with Nagle on for
    # the client's delayed ACK, about 40 ms
    disable_nagle_algorithm = True

    def handle(self):
        try:
            while True:
                try:
                    if not self._read_head():
                        return  # the stream ended, before or inside a head
                except _BadRequest as exc:
                    self.close_connection = True
                    self._send(400, {"error": "request", "message": str(exc)})
                    return
                if self.command != "POST":
                    self.close_connection = True
                    self._send(501, {"error": "protocol",
                                     "message": f"unsupported method {self.command!r}"})
                    return
                self.do_POST()
                if self.close_connection:
                    return
        except OSError:
            pass  # the client went away; nobody is left to answer

    def _line(self, what: str) -> bytes | None:
        """One CRLF- (or LF-) ended line, or None if the stream ends first."""
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise _BadRequest(f"{what} longer than {MAX_LINE} bytes")
        return line if line.endswith(b"\n") else None

    def _read_head(self) -> bool:
        """Read a request line and its header lines into ``command``,
        ``path``, ``request_version``, ``headers`` (lower-cased names; a
        repeated field's values joined by ", ") and ``close_connection``.
        False if the stream ends first."""
        line = self._line("request line")
        if line in (b"\r\n", b"\n"):  # RFC 9112 2.2: one empty line may lead
            line = self._line("request line")
        if line is None:
            return False
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _BadRequest(f"malformed request line {line[:80]!r}")
        self.command, self.path, self.request_version = words
        self.headers = headers = {}
        while (line := self._line("header line")) not in (b"\r\n", b"\n"):
            if line is None:
                return False
            if len(headers) == MAX_HEADERS:
                raise _BadRequest(f"more than {MAX_HEADERS} header lines")
            name, colon, value = line.partition(b":")
            if not colon or name.split() != [name]:  # RFC 9112 5.1
                raise _BadRequest(f"malformed header line {line[:80]!r}")
            key = name.decode("latin-1").lower()
            value = value.strip().decode("latin-1")
            headers[key] = f"{headers[key]}, {value}" if key in headers else value
        tokens = {t.strip().lower() for t in headers.get("connection", "").split(",")}
        self.close_connection = "close" in tokens or (
            self.request_version == "HTTP/1.0" and "keep-alive" not in tokens)
        return True

    def _send(self, status: int, payload: dict):
        blob = json.dumps(payload).encode("utf-8")
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Date: {formatdate(usegmt=True)}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(blob)}\r\n"
                f"{VERSION_HEADER}: {PROTOCOL_VERSION}\r\n{close}\r\n")
        self.wfile.write(head.encode("latin-1") + blob)

    def do_POST(self):
        # the body is read before any reply, so that a kept-alive connection
        # stays framed whatever the answer
        length = self.headers.get("content-length", "")
        if "transfer-encoding" in self.headers or not (length.isascii()
                                                       and length.isdigit()):
            self.close_connection = True
            self._send(400, {"error": "request",
                             "message": "request body needs a Content-Length"})
            return
        digits = length.lstrip("0") or "0"  # int() takes at most 4300 digits
        size = int(digits) if len(digits) <= len(str(_MAX_BODY)) else _MAX_BODY + 1
        if size > _MAX_BODY:  # refused unread (RFC 9110 15.5.14)
            self.close_connection = True
            self._send(413, {"error": "request",
                             "message": f"request body over {_MAX_BODY} bytes"})
            return
        if (self.request_version == "HTTP/1.1"
                and self.headers.get("expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(size)
        if len(raw) < size:  # the stream ended inside the body
            self.close_connection = True
            return
        version = self.headers.get(VERSION_HEADER.lower())
        if version is not None and version != PROTOCOL_VERSION:
            self._send(400, {"error": "protocol",
                             "message": f"unsupported protocol version {version!r}"})
            return
        handler = _ROUTES.get(self.path)
        if handler is None:
            self._send(404, {"error": "protocol",
                             "message": f"unknown route {self.path}"})
            return
        try:
            status, reply = 200, handler(json_object(raw, "request body"))
        except ValueError as exc:  # _BadRequest, or a body json_object rejects
            status, reply = 400, {"error": "request", "message": str(exc)}
        except Exception as exc:  # pragma: no cover - a route handler's own fault
            status, reply = 500, {"error": "internal", "message": str(exc)}
        self._send(status, reply)


class MockServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP server for wire-contract tests and `mock-serve`: a TCP
    server with a thread per connection, each running ``_Handler``'s own
    request loop.

    It keeps its open connections, so that stopping it ends the kept-alive
    ones too instead of leaving their threads answering.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        # set first: a failed bind calls server_close from inside __init__
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        if self._thread:  # shutdown() waits for a serve loop, so only a started one
            self.shutdown()
            self._thread.join(timeout=5)
        self.server_close()

    def process_request(self, request, client_address):
        with self._lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer is already gone

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
