"""In-process mock endpoints implementing the wire contracts.

Routes (all POST, JSON bodies, version header ``lam-msc/1``):

  /transform    {source_modality, target_modality, data: base64}
                -> {target_modality, data: base64}
                Runs the deterministic scene codec, so remote-mode pipeline
                runs match mock-mode runs byte for byte.
  /personalize  {prompt} -> {text}
                Echo contract: returns the user text embedded in the prompt.
  /embed        {text} -> {vector}
                The built-in hashed-trigram embedder.

Failures answer {error, message} with a 4xx status. The server speaks
HTTP/1.1 and keeps connections open; a request whose body cannot be framed
(no valid Content-Length, or a Transfer-Encoding) is answered and its
connection closed.
"""

from __future__ import annotations

import base64
import binascii
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import mma, semeval
from .errors import CaptionParseError
from .fileio import json_object
from .wire import PROTOCOL_VERSION, VERSION_HEADER

_PROMPT_MARKER = "\nText:\n"


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
    cut = prompt.rfind(_PROMPT_MARKER)
    if cut < 0:
        raise _BadRequest("prompt carries no text section")
    return {"text": prompt[cut + len(_PROMPT_MARKER):]}


def _handle_embed(body: dict) -> dict:
    text = body.get("text")
    if not isinstance(text, str):
        raise _BadRequest("request needs a string 'text' field")
    return {"vector": semeval.embed(text).values.tolist()}


_ROUTES = {"/transform": _handle_transform,
           "/personalize": _handle_personalize,
           "/embed": _handle_embed}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out as two writes; with Nagle on, the second
    # waits for the client's delayed ACK (about 40 ms per round trip)
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep test output quiet
        pass

    def _send(self, status: int, payload: dict):
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.send_header(VERSION_HEADER, PROTOCOL_VERSION)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    def do_POST(self):
        # the body is read before any reply, so that a kept-alive connection
        # stays framed whatever the answer
        length = self.headers.get("Content-Length", "")
        if "Transfer-Encoding" in self.headers or not (length.isascii()
                                                       and length.isdigit()):
            self.close_connection = True
            self._send(400, {"error": "request",
                             "message": "request body needs a Content-Length"})
            return
        raw = self.rfile.read(int(length))
        version = self.headers.get(VERSION_HEADER)
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
            self._send(200, handler(json_object(raw, "request body")))
        except ValueError as exc:  # _BadRequest, or a body json_object rejects
            self._send(400, {"error": "request", "message": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": "internal", "message": str(exc)})


class MockServer(ThreadingHTTPServer):
    """Threaded HTTP server for wire-contract tests and `mock-serve`.

    It keeps its open connections, so that stopping it ends the kept-alive
    ones too instead of leaving their threads answering.
    """

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
