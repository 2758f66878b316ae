import base64
import contextlib
import gc
import http.client
import itertools
import json
import os
import pathlib
import select
import socket
import socketserver
import ssl
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from unittest import mock

import numpy as np
import pytest
import requests
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lammsc import corpus, lkb, mma, mockserve, pipeline, semeval, wire
from lammsc.errors import ProtocolError, RemoteServiceError, TransportError
from lammsc.mockserve import MockServer
from lammsc.wire import PROTOCOL_VERSION, VERSION_HEADER, Endpoint, post_json

from test_fileio import DECODE_FAULTS
from test_mma import GARDEN_CAPTION, GARDEN_SCENE


@pytest.fixture(scope="module")
def server():
    with MockServer() as srv:
        yield srv


@pytest.fixture(scope="module")
def endpoint(server):
    return Endpoint(server.url, timeout_ms=5000, retries=1)


class _CannedHandler(BaseHTTPRequestHandler):
    """Answers every POST with a fixed JSON body (for malformed-response tests)."""

    canned: dict = {}

    def log_message(self, *args):
        pass

    def do_POST(self):
        blob = json.dumps(self.canned).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)


@pytest.fixture()
def canned_server():
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class _RawHandler(BaseHTTPRequestHandler):
    """Answers every POST with a fixed status and raw body bytes (for replies
    that are not JSON objects)."""

    status, body, location = 200, b"", None

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(self.status)
        if self.location:
            self.send_header("Location", self.location)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)


@pytest.fixture()
def raw_server():
    server = HTTPServer(("127.0.0.1", 0), _RawHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def canned_endpoint(server) -> Endpoint:
    return Endpoint(f"http://127.0.0.1:{server.server_address[1]}",
                    timeout_ms=2000, retries=0)


class TestTransformContract:
    def test_scene_to_text_matches_local_codec(self, endpoint):
        caption = mma.transform_remote(mma.canonical_scene(GARDEN_SCENE), "text",
                                       endpoint)
        assert caption == GARDEN_CAPTION

    def test_text_to_scene_matches_local_codec(self, endpoint):
        scene = mma.transform_remote(GARDEN_CAPTION, "image", endpoint)
        assert scene == mma.canonical_scene(GARDEN_SCENE)

    def test_unsupported_pair_is_remote_error(self, endpoint):
        with pytest.raises(RemoteServiceError, match="transform"):
            mma.transform_remote(mma.canonical_scene(GARDEN_SCENE), "audio",
                                 endpoint)

    def test_missing_data_field_is_protocol_error(self, canned_server):
        _CannedHandler.canned = {"target_modality": "text"}
        with pytest.raises(ProtocolError, match="data"):
            mma.transform_remote(GARDEN_CAPTION, "image",
                                 canned_endpoint(canned_server))

    def test_unreachable_endpoint_counts_attempts(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(1)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(socket, "create_connection", refuse)
        ep = Endpoint("http://127.0.0.1:1", timeout_ms=100, retries=2)
        with pytest.raises(TransportError, match="3 attempts"):
            mma.transform_remote(GARDEN_CAPTION, "image", ep)
        assert len(calls) == 3

    def test_version_header_round_trip(self, server):
        body = {"source_modality": "image", "target_modality": "text",
                "data": base64.b64encode(
                    mma.scene_to_json(mma.canonical_scene(GARDEN_SCENE))
                    .encode()).decode()}
        resp = requests.post(server.url + "/transform", json=body,
                             headers={VERSION_HEADER: PROTOCOL_VERSION}, timeout=5)
        assert resp.status_code == 200
        assert resp.headers[VERSION_HEADER] == PROTOCOL_VERSION

    def test_wrong_version_rejected(self, server):
        resp = requests.post(server.url + "/transform", json={},
                             headers={VERSION_HEADER: "lam-msc/99"}, timeout=5)
        assert resp.status_code == 400
        assert resp.json()["error"] == "protocol"

    def test_replies_keep_a_kept_alive_connection_framed(self, server):
        with requests.Session() as session:
            post = partial(session.post, timeout=5)
            wrong = post(server.url + "/transform", json={"data": "x"},
                         headers={VERSION_HEADER: "lam-msc/99"})
            unknown = post(server.url + "/nowhere", data=b"x" * 100,
                           headers={VERSION_HEADER: PROTOCOL_VERSION})
            valid = post(server.url + "/personalize",
                         json={"prompt": "task\nText:\nstill framed"},
                         headers={VERSION_HEADER: PROTOCOL_VERSION})
        assert [r.status_code for r in (wrong, unknown, valid)] == [400, 404, 200]
        assert valid.json() == {"text": "still framed"}

    @pytest.mark.parametrize("headers", [
        {"Content-Length": "ten"}, {"Content-Length": "-3"},
        {"Transfer-Encoding": "chunked"}, {}])
    def test_unframed_body_answered_and_closed(self, server, headers):
        host, port = server.url.removeprefix("http://").split(":")
        head = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(f"POST /embed HTTP/1.1\r\nHost: x\r\n{head}\r\n"
                         "0\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(4096):  # the server closes the connection
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply


class TestKeepAlive:
    """One pooled connection per client thread, closed with the server."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_each_client_thread_keeps_one_connection(self, threads):
        def client(i):
            ep = Endpoint(srv.url, retries=0)
            for j in range(10):
                text = f"thread {i} call {j}"
                assert post_json(ep, "/personalize",
                                 {"prompt": f"task\nText:\n{text}"}) == {"text": text}
            post_json(Endpoint(srv.url + "/"), "/embed", {"text": "other endpoint"})

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MockServer() as srv:
                accepted = counting_accepts(srv)
                with ThreadPoolExecutor(threads) as pool:
                    list(pool.map(client, range(threads), timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert len(accepted) == threads

    def test_stopped_server_is_transport_error(self):
        srv = MockServer().start()
        ep = Endpoint(srv.url, timeout_ms=1000, retries=1)
        body = {"prompt": "task\nText:\nhi"}
        assert post_json(ep, "/personalize", body) == {"text": "hi"}
        srv.stop()
        with pytest.raises(TransportError, match="2 attempts"):
            post_json(ep, "/personalize", body)

    def test_connection_closed_after_each_reply_is_reopened(self):
        class OneShotHandler(BaseHTTPRequestHandler):
            """Keeps HTTP/1.1 framing but closes each connection shortly
            after one reply without saying so, as a server dropping an idle
            connection does: the next request goes out on a dead connection."""

            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                blob = b'{"text": "once"}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)
                time.sleep(0.05)
                self.close_connection = True

        server = ThreadingHTTPServer(("127.0.0.1", 0), OneShotHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            ep = Endpoint(f"http://127.0.0.1:{server.server_address[1]}",
                          timeout_ms=2000, retries=0)
            for _ in range(2):
                assert post_json(ep, "/personalize", {"prompt": ""}) == \
                    {"text": "once"}
        finally:
            server.shutdown()
            server.server_close()

    def test_interrupted_call_closes_its_connection(self, monkeypatch):
        """An exception other than a socket error that stops a call mid-reply
        closes the call's connection: the next call opens a new one."""
        readers = []
        reply = wire._reply

        def interrupted(rfile):
            readers.append(rfile)
            monkeypatch.setattr(wire, "_reply", reply)
            raise KeyboardInterrupt

        def calls(ep):
            with pytest.raises(KeyboardInterrupt):
                post_json(ep, "/embed", {"text": "first"})
            return post_json(ep, "/personalize", {"prompt": "task\nText:\nhi"})

        monkeypatch.setattr(wire, "_reply", interrupted)
        with MockServer() as srv:
            accepted = counting_accepts(srv)
            assert on_new_thread(calls, Endpoint(srv.url)) == {"text": "hi"}
        assert [r.closed for r in readers] == [True]
        assert len(accepted) == 2

    def test_sequential_calls_do_not_stall(self):
        # with Nagle on, each kept-alive round trip waits for a delayed ACK
        # (about 40 ms); without it a call takes a few ms
        with MockServer() as srv:
            ep = Endpoint(srv.url, retries=0)
            times = []
            for i in range(31):
                start = time.perf_counter()
                post_json(ep, "/embed", {"text": f"message {i}"})
                times.append(time.perf_counter() - start)
        assert statistics.median(times) < 0.020


class _Recorder:
    """A raw-socket server that records each request's bytes. It answers a
    CONNECT with 502, as a proxy that cannot reach the host does, and any
    other request with a 200 JSON reply; then it closes the connection."""

    REPLY = b'{"text": "recorded"}'

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self.requests: list[bytes] = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:  # closed
                return
            with conn:
                raw = b""
                while b"\r\n\r\n" not in raw and (chunk := conn.recv(65536)):
                    raw += chunk
                head = raw.partition(b"\r\n\r\n")[0].decode("latin1").lower()
                length = int(next((line.split(":")[1] for line in head.split("\r\n")
                                   if line.startswith("content-length:")), 0))
                while len(raw.partition(b"\r\n\r\n")[2]) < length:
                    raw += conn.recv(65536)
                self.requests.append(raw)
                if raw.startswith(b"CONNECT "):
                    conn.sendall(b"HTTP/1.1 502 Bad Gateway\r\n"
                                 b"Content-Length: 0\r\nConnection: close\r\n\r\n")
                else:
                    conn.sendall(b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
                                 b"Content-Length: %d\r\n\r\n%s"
                                 % (len(self.REPLY), self.REPLY))

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.sock.close()
        self.thread.join(timeout=5)


@pytest.fixture()
def recorder():
    rec = _Recorder()
    yield rec
    rec.close()


@pytest.fixture()
def clean_env(monkeypatch):
    """No proxy or CA bundle from the environment the tests run in."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy",
                 "requests_ca_bundle", "curl_ca_bundle"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


@pytest.fixture()
def direct(recorder, server, clean_env):
    """The host of each connection opened other than to ``recorder``; each
    one goes to ``server`` whatever its address, so no name is looked up."""
    hosts = []
    create = socket.create_connection

    def redirect(address, *args, **kwargs):
        if address[:2] == recorder.sock.getsockname()[:2]:
            return create(address, *args, **kwargs)
        hosts.append(f"{address[0]}:{address[1]}")
        return create(server.server_address[:2], *args, **kwargs)

    clean_env.setattr(socket, "create_connection", redirect)
    return hosts


def on_new_thread(fn, *args):
    """Run ``fn`` on a thread of its own, so it opens its own connections."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=60)


def counting_accepts(srv) -> list:
    accepted = []
    get_request = srv.get_request

    def counting_get_request():
        conn = get_request()
        accepted.append(conn[1])
        return conn

    srv.get_request = counting_get_request
    return accepted


class TestTransport:
    """What goes on the wire, and the environment read once per connection."""

    def test_request_bytes_pinned(self, recorder, clean_env):
        reply = on_new_thread(post_json, Endpoint(recorder.url + "/"), "/embed",
                              {"text": "caf\u00e9 \u2603", "n": [1, 2.5]})
        assert reply == {"text": "recorded"}
        (raw,) = recorder.requests
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin1").split("\r\n")
        assert lines[0] == "POST /embed HTTP/1.1"
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers["Content-Type"] == "application/json"
        assert headers[VERSION_HEADER] == PROTOCOL_VERSION
        assert body == b'{"text": "caf\\u00e9 \\u2603", "n": [1, 2.5]}'
        assert headers["Content-Length"] == str(len(body))

    @pytest.mark.parametrize("proxy, netrc, url, want", [
        (None, None, "http://us%40er:pw@{host}", [
            "POST /embed HTTP/1.1", "Host: {host}", "Accept-Encoding: identity",
            "Content-Length: 14", "Content-Type: application/json",
            f"{VERSION_HEADER}: {PROTOCOL_VERSION}",
            "Authorization: Basic dXNAZXI6cHc="]),
        ("http://pu:pp@{host}", None, "http://us:pw@lammsc.invalid:8080", [
            "POST http://lammsc.invalid:8080/embed HTTP/1.1",
            "Host: lammsc.invalid:8080", "Accept-Encoding: identity",
            "Content-Length: 14", "Content-Type: application/json",
            f"{VERSION_HEADER}: {PROTOCOL_VERSION}", "Authorization: Basic dXM6cHc=",
            "Proxy-Authorization: Basic cHU6cHA="]),
        (None, "machine 127.0.0.1 login n password q", "http://{host}", [
            "POST /embed HTTP/1.1", "Host: {host}", "Accept-Encoding: identity",
            "Content-Length: 14", "Content-Type: application/json",
            f"{VERSION_HEADER}: {PROTOCOL_VERSION}", "Authorization: Basic bjpx"])],
        ids=["url-credentials", "proxy-credentials", "netrc"])
    def test_request_head_pinned(self, recorder, clean_env, tmp_path, proxy, netrc,
                                 url, want):
        """Every line of the request head, in order."""
        host = recorder.url.removeprefix("http://")
        path = tmp_path / "netrc"  # a missing file gives no credentials
        if netrc is not None:
            path.write_text(netrc + "\n")
        clean_env.setenv("NETRC", str(path))
        if proxy is not None:
            clean_env.setenv("HTTP_PROXY", proxy.format(host=host))
        on_new_thread(post_json, Endpoint(url.format(host=host)), "/embed",
                      {"text": "hi"})
        (raw,) = recorder.requests
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.decode("latin1").split("\r\n") == [
            line.format(host=host) for line in want]
        assert body == b'{"text": "hi"}'

    def test_http_proxy_gets_the_absolute_url(self, recorder, clean_env):
        host = recorder.url.removeprefix("http://")
        clean_env.setenv("HTTP_PROXY", f"http://user:pw@{host}")
        reply = on_new_thread(post_json, Endpoint("http://lammsc.invalid:8080"),
                              "/embed", {"text": "hi"})
        assert reply == {"text": "recorded"}
        (raw,) = recorder.requests
        lines = raw.partition(b"\r\n\r\n")[0].decode("latin1").split("\r\n")
        assert lines[0] == "POST http://lammsc.invalid:8080/embed HTTP/1.1"
        assert "Host: lammsc.invalid:8080" in lines
        assert f"Proxy-Authorization: Basic {base64.b64encode(b'user:pw').decode()}" \
            in lines

    def test_https_proxy_gets_a_tunnel(self, recorder, clean_env):
        clean_env.setenv("HTTPS_PROXY", recorder.url)
        ep = Endpoint("https://lammsc.invalid:8443", timeout_ms=2000, retries=0)
        with pytest.raises(TransportError, match="Tunnel connection failed: 502"):
            on_new_thread(post_json, ep, "/embed", {"text": "hi"})
        (raw,) = recorder.requests
        assert raw.startswith(b"CONNECT lammsc.invalid:8443 HTTP/1.")

    @pytest.mark.parametrize("proxy", ["socks5://127.0.0.1:1080",
                                       "http://127.0.0.1:99999"],
                             ids=["socks", "port-out-of-range"])
    def test_unusable_proxy_is_transport_error(self, clean_env, proxy):
        clean_env.setenv("HTTP_PROXY", proxy)
        ep = Endpoint("http://lammsc.invalid:8080", retries=0)
        with pytest.raises(TransportError, match="unsupported proxy"):
            on_new_thread(post_json, ep, "/embed", {"text": "hi"})

    def test_no_proxy_bypasses_the_proxy(self, recorder, server, clean_env):
        clean_env.setenv("HTTP_PROXY", recorder.url)
        clean_env.setenv("NO_PROXY", "127.0.0.1")
        body = {"prompt": "task\nText:\ndirect"}
        assert on_new_thread(post_json, Endpoint(server.url), "/personalize",
                             body) == {"text": "direct"}
        assert recorder.requests == []

    @pytest.mark.parametrize("no_proxy, url, bypassed", [
        ("127.0.0.0/8", "http://127.0.0.1:8080", True),
        (".example.com", "http://a.example.com:8080", True),
        ("h:8080", "http://h:8080", True),
        ("*", "http://h:8080", True),
        ("10.0.0.0/8", "http://127.0.0.1:8080", False),
        ("b.example.com, h:9090", "http://a.example.com:8080", False)],
        ids=["cidr", "domain", "host-and-port", "star", "other-cidr", "other-hosts"])
    def test_no_proxy_entry(self, recorder, direct, clean_env, no_proxy, url,
                            bypassed):
        clean_env.setenv("HTTP_PROXY", recorder.url)
        clean_env.setenv("NO_PROXY", no_proxy)
        reply = on_new_thread(post_json, Endpoint(url), "/personalize",
                              {"prompt": "task\nText:\ndirect"})
        if bypassed:
            assert reply == {"text": "direct"}
            assert (direct, recorder.requests) == ([url.split("/")[2]], [])
        else:
            assert reply == {"text": "recorded"}
            assert direct == [] and len(recorder.requests) == 1

    @pytest.mark.parametrize("name, proxy", [("HTTP_PROXY", "{}"),
                                             ("ALL_PROXY", "http://{}")],
                             ids=["no-scheme", "all-proxy"])
    def test_proxy_from_the_environment(self, recorder, clean_env, name, proxy):
        clean_env.setenv(name, proxy.format(recorder.url.removeprefix("http://")))
        reply = on_new_thread(post_json, Endpoint("http://lammsc.invalid:8080"),
                              "/embed", {"text": "hi"})
        assert reply == {"text": "recorded"}
        (raw,) = recorder.requests
        assert raw.startswith(b"POST http://lammsc.invalid:8080/embed HTTP/1.1\r\n")

    @pytest.mark.parametrize("netrc, url, want", [
        ("machine 127.0.0.1 login u password p", "http://{}", b"u:p"),
        ("machine 127.0.0.1 account a password p", "http://{}", b"a:p"),
        ("machine 127.0.0.1 login u password p", "http://x:y@{}", b"u:p"),
        ("default login d password p", "http://{}", b"d:p"),
        ("machine other login u password p", "http://{}", None),
        ("bogus 127.0.0.1", "http://x:y@{}", b"x:y"),
        (None, "http://us%40er:p%3Ass@{}", b"us@er:p:ss"),
        (None, "http://user:@{}", b"user:"),
        (None, "http://user@{}", None)],
        ids=["netrc-login", "netrc-account", "netrc-over-userinfo", "netrc-default",
             "netrc-other-host", "netrc-unparsable", "userinfo-decoded",
             "userinfo-empty-password", "userinfo-without-password"])
    def test_authorization(self, recorder, clean_env, tmp_path, netrc, url, want):
        path = tmp_path / "netrc"
        if netrc is not None:
            path.write_text(netrc + "\n")
        clean_env.setenv("NETRC", str(path))  # a missing file gives no credentials
        host = recorder.url.removeprefix("http://")
        on_new_thread(post_json, Endpoint(url.format(host)), "/embed", {"text": "hi"})
        (raw,) = recorder.requests
        lines = raw.partition(b"\r\n\r\n")[0].split(b"\r\n")
        assert [line for line in lines if line.startswith(b"Authorization:")] == (
            [b"Authorization: Basic " + base64.b64encode(want)] if want else [])

    @pytest.mark.parametrize("userinfo, want", [
        ("us%40er:p%3Ass@", b"us@er:p:ss"), ("user@", None)],
        ids=["decoded", "without-password"])
    def test_proxy_authorization(self, recorder, clean_env, userinfo, want):
        clean_env.setenv("HTTP_PROXY", recorder.url.replace("//", "//" + userinfo))
        on_new_thread(post_json, Endpoint("http://lammsc.invalid:8080"), "/embed",
                      {"text": "hi"})
        (raw,) = recorder.requests
        lines = raw.partition(b"\r\n\r\n")[0].split(b"\r\n")
        assert [line for line in lines if line.startswith(b"Proxy-Authorization:")] \
            == ([b"Proxy-Authorization: Basic " + base64.b64encode(want)]
                if want else [])

    def test_environment_read_once_per_connection(self, server, clean_env):
        scans = []
        getproxies = urllib.request.getproxies

        def counting():
            scans.append(1)
            return getproxies()

        clean_env.setattr(urllib.request, "getproxies", counting)

        def ten_posts():
            for i in range(10):
                post_json(Endpoint(server.url), "/embed", {"text": f"call {i}"})

        on_new_thread(ten_posts)
        assert len(scans) == 1

    @pytest.mark.parametrize("env, want", [
        ({"REQUESTS_CA_BUNDLE": "requests.pem", "CURL_CA_BUNDLE": "curl.pem"},
         "requests.pem"),
        ({"CURL_CA_BUNDLE": "curl.pem"}, "curl.pem"),
        ({}, None)], ids=["requests", "curl", "default"])
    def test_tls_context_uses_the_ca_bundle(self, clean_env, tmp_path, env, want):
        for name, file in env.items():
            (tmp_path / file).write_text("")
            clean_env.setenv(name, str(tmp_path / file))
        seen = []
        create = ssl.create_default_context

        def recording(**kwargs):
            seen.append(kwargs)
            return create()

        clean_env.setattr(ssl, "create_default_context", recording)
        with pytest.raises(TransportError):  # nothing listens on port 1
            on_new_thread(post_json, Endpoint("https://127.0.0.1:1", retries=0),
                          "/embed", {"text": "hi"})
        assert seen == [{"cafile": str(tmp_path / want)} if want else {}]

    def test_connections_close_when_their_thread_ends(self, server):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            on_new_thread(post_json, Endpoint(server.url), "/embed", {"text": "x"})
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_least_recently_used_connection_closed(self):
        with MockServer() as srv:
            accepted = counting_accepts(srv)
            hosts = [srv.url.replace("://", f"://u{i}@")
                     for i in range(wire.MAX_HOSTS + 1)]

            def calls(order):
                for i in order:
                    post_json(Endpoint(hosts[i]), "/embed", {"text": "x"})
                return len(wire._local.routes)

            # host 0 was evicted by the last host, which is still open
            kept = on_new_thread(calls, [*range(len(hosts)), len(hosts) - 1, 0])
        assert kept == wire.MAX_HOSTS
        assert len(accepted) == len(hosts) + 1


class _ScriptedHandler(socketserver.StreamRequestHandler):
    """Reads each request, head and Content-Length body, and answers it with
    the server's next scripted reply."""

    def handle(self):
        while True:
            head = []
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                head.append(line.lower())
            if not line:
                return  # the client closed the connection
            self.rfile.read(next((int(h.split(b":")[1]) for h in head
                                  if h.startswith(b"content-length:")), 0))
            data, close = next(self.server.replies)
            self.wfile.write(data)
            if close:
                return


class _Scripted(socketserver.ThreadingTCPServer):
    """A raw-socket server whose replies are ``(bytes, close)`` pairs: each
    request gets the next pair's bytes, and the connection then closes if
    ``close`` is true."""

    daemon_threads = True

    def __init__(self, replies):
        self.replies = iter(replies)
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)


@contextlib.contextmanager
def scripted(replies):
    srv = _Scripted(replies)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


FRAMED = b'{"text": "framed"}'


def sized(head: bytes, body: bytes = FRAMED) -> bytes:
    """A 200 reply with ``head``'s extra lines and a Content-Length body."""
    return (b"HTTP/1.1 200 OK\r\n%bContent-Length: %d\r\n\r\n%b"
            % (head, len(body), body))


def posts(srv, count: int, retries: int = 0) -> list:
    """``count`` posts to ``srv`` from a thread of their own."""
    ep = Endpoint(f"http://127.0.0.1:{srv.server_address[1]}", timeout_ms=2000,
                  retries=retries)
    return on_new_thread(lambda: [post_json(ep, "/embed", {"text": "x"})
                                  for _ in range(count)])


class TestReplyFraming:
    """The client's reply reader at the edges of RFC 9112."""

    def test_chunked_with_an_extension_and_a_trailer(self):
        data = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4;name=value\r\n" + FRAMED[:4] + b"\r\n"
                + b"%x\r\n" % (len(FRAMED) - 4) + FRAMED[4:] + b"\r\n"
                b"0\r\nX-Trailer: t\r\n\r\n")
        with scripted([(data, False)] * 2) as srv:
            accepted = counting_accepts(srv)
            assert posts(srv, 2) == [{"text": "framed"}] * 2
        assert len(accepted) == 1  # the connection stayed framed

    def test_close_delimited_body(self):
        data = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + FRAMED
        with scripted([(data, True)] * 2) as srv:
            accepted = counting_accepts(srv)
            assert posts(srv, 2) == [{"text": "framed"}] * 2
        assert len(accepted) == 2

    def test_interim_replies_skipped(self):
        data = (b"HTTP/1.1 100 Continue\r\n\r\n"
                b"HTTP/1.1 103 Early Hints\r\nLink: </a>; rel=preload\r\n\r\n"
                + sized(b""))
        with scripted([(data, False)] * 2) as srv:
            accepted = counting_accepts(srv)
            assert posts(srv, 2) == [{"text": "framed"}] * 2
        assert len(accepted) == 1

    @pytest.mark.parametrize("version, head, connections", [
        (b"HTTP/1.0", b"", 2), (b"HTTP/1.1", b"Connection: close\r\n", 2),
        (b"HTTP/1.0", b"Connection: keep-alive\r\n", 1)],
        ids=["http-1.0", "connection-close", "http-1.0-keep-alive"])
    def test_reply_that_closes_opens_a_new_connection(self, version, head,
                                                      connections):
        # the server keeps every connection open: the client closes it
        data = sized(head).replace(b"HTTP/1.1", version, 1)
        with scripted([(data, False)] * 2) as srv:
            accepted = counting_accepts(srv)
            assert posts(srv, 2) == [{"text": "framed"}] * 2
        assert len(accepted) == connections

    def test_limits_are_inclusive(self):
        # a 65536-byte header line, and 100 header lines with Content-Length
        long_line = b"X-Long: " + b"a" * (65536 - len(b"X-Long: \r\n")) + b"\r\n"
        head = long_line + b"".join(b"X-H%d: v\r\n" % i for i in range(98))
        with scripted([(sized(head), False)]) as srv:
            assert posts(srv, 1) == [{"text": "framed"}]

    @pytest.mark.parametrize("data", [
        sized(b"X-Long: " + b"a" * 65536 + b"\r\n"),
        sized(b"".join(b"X-H%d: v\r\n" % i for i in range(100))),
        sized(b"", FRAMED)[:-4],
        b"HTTP/1.1 200 OK\r\nContent-Length: 18\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n12\r\n" + FRAMED[:9],
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 18, 19\r\n\r\n" + FRAMED,
        b"HTTP/1.1 200 OK\r\nContent-Length: -18\r\n\r\n" + FRAMED,
        b"HTTP/1.1 2000 OK\r\n\r\n", b"ICY 200 OK\r\n\r\n", b""],
        ids=["long-header-line", "101-header-lines", "body-cut-short",
             "head-cut-short", "chunk-cut-short", "bad-chunk-size",
             "conflicting-lengths", "negative-length", "bad-status-code",
             "not-http", "no-reply"])
    def test_bad_reply_is_transport_error(self, data):
        with scripted(itertools.repeat((data, True))) as srv:
            accepted = counting_accepts(srv)
            with pytest.raises(TransportError, match="after 2 attempts"):
                posts(srv, 1, retries=1)
        assert len(accepted) == 2


TLS_PEM = pathlib.Path(__file__).with_name("localhost.pem")  # self-signed, with its key


class _TLSMockServer(MockServer):
    """The mock server behind TLS, with the certificate of ``TLS_PEM``."""

    def finish_request(self, request, client_address):
        context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
        context.load_cert_chain(TLS_PEM)
        with context.wrap_socket(request, server_side=True) as tls:
            super().finish_request(tls, client_address)


class _TunnelHandler(socketserver.StreamRequestHandler):
    """An HTTP proxy that answers CONNECT host:port with 200 and then relays
    bytes both ways to that port on 127.0.0.1."""

    def handle(self):
        head = b""
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            head += line
        self.server.heads.append(head)
        port = int(head.split()[1].rpartition(b":")[2])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as upstream:
            self.wfile.write(b"HTTP/1.0 200 Connection established\r\n\r\n")
            ends = {self.connection: upstream, upstream: self.connection}
            while (ready := select.select(list(ends), [], [], 5)[0]):
                for sock in ready:
                    if not (data := sock.recv(65536)):
                        return
                    ends[sock].sendall(data)


class TestTLS:
    def test_https_direct_and_through_a_tunnel(self, clean_env):
        clean_env.setenv("REQUESTS_CA_BUNDLE", str(TLS_PEM))
        tunnel = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TunnelHandler)
        tunnel.daemon_threads, tunnel.heads = True, []
        threading.Thread(target=tunnel.serve_forever, daemon=True).start()

        def calls(ep):
            return [post_json(ep, "/personalize", {"prompt": f"task\nText:\n{i}"})
                    for i in range(3)]

        try:
            with _TLSMockServer() as srv:
                accepted = counting_accepts(srv)
                ep = Endpoint(f"https://localhost:{srv.server_address[1]}")
                direct = on_new_thread(calls, ep)
                clean_env.setenv("HTTPS_PROXY", "http://pu:pp@127.0.0.1:%d"
                                 % tunnel.server_address[1])
                tunnelled = on_new_thread(calls, ep)
        finally:
            tunnel.shutdown()
            tunnel.server_close()
        assert direct == tunnelled == [{"text": str(i)} for i in range(3)]
        assert len(accepted) == 2  # one kept-alive connection per thread
        assert tunnel.heads == [b"CONNECT localhost:%d HTTP/1.0\r\n"
                                b"Proxy-Authorization: Basic cHU6cHA=\r\n"
                                % srv.server_address[1]]


class TestEndpoint:
    @pytest.mark.parametrize("url", ["http://127.0.0.1:abc", "http://h:-1",
                                     "http://h:70000"])
    def test_bad_port_rejected(self, url):
        with pytest.raises(ValueError, match="[Pp]ort"):
            Endpoint(url)

    @pytest.mark.parametrize("url", ["http://h/a b", "http://h/\x00", "http://h/\x7f",
                                     "http://h:80/x\x0b"])
    def test_space_or_control_character_rejected(self, url):
        with pytest.raises(ValueError, match="space or control character"):
            Endpoint(url)

    @pytest.mark.parametrize("url", ["localhost:8099", "ftp://x", "http://",
                                     "https://:8443", "//127.0.0.1:1", ""])
    def test_not_an_http_url_with_a_host_rejected(self, url):
        with pytest.raises(ValueError, match="http:// or https:// URL with a host"):
            Endpoint(url)

    @pytest.mark.parametrize("timeout_ms", [0, -1, wire.MAX_TIMEOUT_MS + 1,
                                            2 ** 32 + 100, 10 ** 13])
    def test_timeout_out_of_range_rejected(self, timeout_ms):
        with pytest.raises(ValueError, match="timeout_ms"):
            Endpoint("http://127.0.0.1:1", timeout_ms=timeout_ms)

    def test_post_at_the_timeout_bound(self, server):
        """The largest timeout is one a socket takes, on a new connection and
        on a kept-alive one whose timeout changes."""
        slow = Endpoint(server.url, timeout_ms=wire.MAX_TIMEOUT_MS, retries=0)
        fast = Endpoint(server.url, retries=0)

        def posts():
            return [post_json(ep, "/embed", {"text": "bound"})
                    for ep in (slow, fast, slow)]

        want = post_json(fast, "/embed", {"text": "bound"})
        assert on_new_thread(posts) == [want] * 3


_MOCK_RUN = """
import sys
from lammsc import cli, corpus, pipeline
scenes = corpus.synthetic_corpus(2, seed=3)
cfg = pipeline.PipelineConfig(snr_db=[10.0],
                              estimators=["perfect", "ls", "none"]).validate()
assert len(pipeline.sweep(cfg, scenes).rows) == 3
rec = pipeline.run_pipeline(scenes[0], cfg, *pipeline.load_profiles(cfg))
assert rec.frame_ser, "nothing was sent"
print(" ".join(m for m in sys.argv[1:] if m in sys.modules))
from lammsc import wire
assert wire.requests is sys.modules["requests"]
"""


class TestLazyTransport:
    def test_mock_run_loads_no_http_stack(self):
        """Importing ``pipeline`` and ``cli`` and running a mock sweep and a
        mock ``run_pipeline`` load no HTTP client or server; ``wire.requests``
        still resolves, for the benchmark tracer."""
        src = str(pathlib.Path(wire.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        transport = ["requests", "urllib3", "charset_normalizer", "ssl",
                     "http.client", "http.server"]
        done = subprocess.run([sys.executable, "-c", _MOCK_RUN, *transport],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    def test_other_missing_names_still_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'session'"):
            wire.session  # noqa: B018


_REMOTE_RUN_WITHOUT_REQUESTS = """
import sys
sys.modules["requests"] = None  # any import of requests now fails
from dataclasses import replace
from lammsc import corpus, pipeline
from lammsc.mockserve import MockServer
scene = corpus.synthetic_corpus(1, seed=29)[0]
with MockServer() as srv:
    cfg = pipeline.PipelineConfig(
        snr_db=[10.0], estimator="ls", mma_backend="remote", lkb_backend="remote",
        embed_backend="remote", mma_endpoint=srv.url, lkb_endpoint=srv.url,
        embed_endpoint=srv.url).validate()
    profiles = pipeline.load_profiles(cfg)
    rec = pipeline.run_pipeline(scene, cfg, *profiles, seed=5)
mock = replace(cfg, mma_backend="mock", lkb_backend="mock", embed_backend="mock",
               lkb_enabled=False)
ref = pipeline.run_pipeline(scene, mock, *profiles, seed=5)
fields = ("caption", "received_text", "recovered_text", "cosine", "error_stage")
assert [getattr(rec, f) for f in fields] == [getattr(ref, f) for f in fields]
assert rec.caption and rec.cosine is not None
assert sys.modules["requests"] is None and "urllib3" not in sys.modules
print("ok")
"""


def test_remote_run_needs_no_requests():
    """An all-remote run against the mock server, in a process where
    ``requests`` cannot be imported, gives the mock-backend record."""
    src = str(pathlib.Path(wire.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _REMOTE_RUN_WITHOUT_REQUESTS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


class TestServerLifecycle:
    def test_failed_bind_raises_its_os_error(self):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            with pytest.raises(OSError, match="in use"):
                MockServer("127.0.0.1", taken.getsockname()[1])

    def test_stop_without_start_returns(self):
        srv = MockServer()
        worker = threading.Thread(target=srv.stop, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert srv.socket.fileno() == -1


def raw_request(text: str, version: str = "HTTP/1.1", head: str = "") -> bytes:
    """A /personalize request whose reply echoes ``text``."""
    body = json.dumps({"prompt": f"task\nText:\n{text}"}).encode()
    return (f"POST /personalize {version}\r\nHost: x\r\n{head}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def read_to_close(sock) -> bytes:
    """Everything the server sends until it closes the connection. A server
    that closes with request bytes unread resets the connection; what it
    sent before stays readable."""
    reply = b""
    try:
        while chunk := sock.recv(65536):
            reply += chunk
    except ConnectionResetError:
        pass
    return reply


def exchange(server, data: bytes) -> bytes:
    """Send ``data`` on a new connection; the server's bytes until it closes."""
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        try:
            sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before it took every byte
        return read_to_close(sock)


def reply_json(reply: bytes) -> dict:
    return json.loads(reply.partition(b"\r\n\r\n")[2])


def connection_ends(srv) -> threading.Event:
    """Set once the server has finished with a connection; a traceback for
    it would have been printed before."""
    ended = threading.Event()
    shutdown_request = srv.shutdown_request

    def signalling(request):
        shutdown_request(request)
        ended.set()

    srv.shutdown_request = signalling
    return ended


class TestRequestLoop:
    """The mock server's own request loop at the edges of RFC 9112."""

    @pytest.mark.parametrize("data", [
        b"POST /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n",
        raw_request("x", head="X-Long: " + "a" * 65536 + "\r\n"),
        raw_request("x", head="".join(f"X-H{i}: v\r\n" for i in range(101))),
        raw_request("x", head="X-No-Colon\r\n"),
        raw_request("x", head="X-Space : v\r\n"),
        raw_request("x", head=" X-Folded: v\r\n"),
        raw_request("x", version="HTTP/2.0"),
        b"POST /personalize\r\n\r\n"],
        ids=["long-request-line", "long-header-line", "101-headers", "no-colon",
             "space-before-colon", "folded-line", "http-2", "two-words"])
    def test_bad_head_is_400_and_closed(self, server, data):
        reply = exchange(server, data)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply_json(reply)["error"] == "request"

    def test_limits_are_inclusive(self, server):
        # a 65536-byte line, and 100 header lines with Host and Content-Length
        long_line = "X-Long: " + "a" * (65536 - len("X-Long: \r\n")) + "\r\n"
        head = long_line + "".join(f"X-H{i}: v\r\n" for i in range(96))
        reply = exchange(server, raw_request("at the limits",
                                             head=head + "Connection: close\r\n"))
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply_json(reply) == {"text": "at the limits"}

    @pytest.mark.parametrize("method", ["GET", "PUT", "DELETE"])
    def test_other_method_is_501_and_closed(self, server, method):
        reply = exchange(server, f"{method} /embed HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert b"\r\nConnection: close\r\n" in reply
        body = reply_json(reply)
        assert set(body) == {"error", "message"}
        assert method in body["message"]

    def test_expect_100_continue_before_the_body(self, server):
        request = raw_request("after continue",
                              head="Expect: 100-continue\r\nConnection: close\r\n")
        head, _, body = request.partition(b"\r\n\r\n")
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(head + b"\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n") and (chunk := sock.recv(1)):
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = read_to_close(sock)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply_json(reply) == {"text": "after continue"}

    @pytest.mark.parametrize("first, replies", [
        ("", 1), ("Connection: keep-alive\r\n", 2), ("Connection: Keep-Alive, x\r\n", 2)],
        ids=["plain", "keep-alive", "keep-alive-token"])
    def test_http_1_0_closes_unless_kept_alive(self, server, first, replies):
        reply = exchange(server, raw_request("one", "HTTP/1.0", first)
                         + raw_request("two", "HTTP/1.0"))
        assert reply.count(b"HTTP/1.1 200 OK\r\n") == replies
        assert reply.endswith(b'{"text": "one"}' if replies == 1 else b'{"text": "two"}')

    def test_pipelined_requests_answered_in_order(self, server):
        # the CRLF after the first body is the one empty line RFC 9112 lets lead
        reply = exchange(server, raw_request("first") + b"\r\n"
                         + raw_request("second", head="Connection: close\r\n"))
        first, second = reply.split(b"HTTP/1.1 200 OK\r\n")[1:]
        assert first.endswith(b'{"text": "first"}')
        assert second.endswith(b'{"text": "second"}')
        assert b"\r\nConnection: close\r\n" in second


class TestQuietDisconnects:
    """A client that goes away early costs the server no traceback and no
    reply, and the next client is answered."""

    def test_body_cut_short_gets_no_reply(self, capfd):
        with MockServer() as srv:
            ended = connection_ends(srv)
            with socket.create_connection(srv.server_address[:2], timeout=5) as sock:
                sock.sendall(b"POST /embed HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 100\r\n\r\n" + b'{"text": "cut')
                sock.shutdown(socket.SHUT_WR)
                assert read_to_close(sock) == b""
            assert ended.wait(5)
            assert post_json(Endpoint(srv.url, retries=0), "/personalize",
                             {"prompt": "task\nText:\nnext"}) == {"text": "next"}
        assert capfd.readouterr().err == ""

    def test_reset_during_the_reply_is_quiet(self, capfd, monkeypatch):
        entered, reset = threading.Event(), threading.Event()

        def slow(body):
            entered.set()
            reset.wait(5)
            return {"text": "too late"}

        monkeypatch.setitem(mockserve._ROUTES, "/slow", slow)
        with MockServer() as srv:
            ended = connection_ends(srv)
            sock = socket.create_connection(srv.server_address[:2], timeout=5)
            sock.sendall(b"POST /slow HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 2\r\n\r\n{}")
            assert entered.wait(5)
            # a zero linger time makes close() send a reset
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            reset.set()
            assert ended.wait(5)
            assert post_json(Endpoint(srv.url, retries=0), "/personalize",
                             {"prompt": "task\nText:\nnext"}) == {"text": "next"}
        assert capfd.readouterr().err == ""


def body_head(length: str, head: str = "") -> bytes:
    """The head of a /personalize request declaring ``length`` body bytes."""
    return (f"POST /personalize HTTP/1.1\r\nHost: x\r\n{head}"
            f"Content-Length: {length}\r\n\r\n").encode()


def next_client_served(server) -> bool:
    return post_json(Endpoint(server.url, retries=0), "/personalize",
                     {"prompt": "task\nText:\nnext"}) == {"text": "next"}


class TestBodyCap:
    """A declared body over mockserve._MAX_BODY is refused unread with a 413."""

    @pytest.mark.parametrize("length", [
        str(10 ** 20), str(mockserve._MAX_BODY + 1), "9" * 5000],
        ids=["20-digits", "cap-plus-one", "5000-digits"])
    def test_over_the_cap_is_413_and_closed(self, server, capfd, length):
        reply = exchange(server, body_head(length))  # returns once the server closes
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert set(reply_json(reply)) == {"error", "message"}
        assert capfd.readouterr().err == ""
        assert next_client_served(server)

    def test_over_the_cap_gets_no_100_continue(self, server):
        reply = exchange(server, body_head(str(mockserve._MAX_BODY + 1),
                                           "Expect: 100-continue\r\n"))
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"100 Continue" not in reply

    def test_body_of_exactly_the_cap_is_answered(self, server):
        body = json.dumps({"prompt": "task\nText:\nat the cap"}).encode()
        body += b" " * (mockserve._MAX_BODY - len(body))  # JSON allows trailing space
        reply = exchange(server, body_head(str(len(body)), "Connection: close\r\n")
                         + body)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply_json(reply) == {"text": "at the cap"}

    def test_leading_zeros_do_not_count(self, server):
        body = json.dumps({"prompt": "task\nText:\nzeros"}).encode()
        reply = exchange(server, body_head("0" * 5000 + str(len(body)),
                                           "Connection: close\r\n") + body)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply_json(reply) == {"text": "zeros"}


_LINE_TEXT = st.text(st.characters(blacklist_characters="\r\n"), max_size=30)
_REQUEST_LINES = st.tuples(
    st.sampled_from(["POST", "GET", "post", ""]),
    st.sampled_from(["/personalize", "/embed", "/transform", "/nope", "*"]),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.1 x", ""]),
).map(" ".join) | _LINE_TEXT
_HEADER_LINES = st.sampled_from([
    "Host: x", "Connection: close", "Connection: keep-alive",
    "Expect: 100-continue", "Transfer-Encoding: chunked",
    f"{VERSION_HEADER}: {PROTOCOL_VERSION}", f"{VERSION_HEADER}: 9",
    "X-No-Colon", " X-Folded: v"]) | _LINE_TEXT
_LENGTHS = st.one_of(
    st.integers(0, 80).map(str),
    st.integers(10 ** 19, 10 ** 20 - 1).map(str),  # 20 digits
    st.integers(-80, -1).map(str),
    st.just(""),
    st.text("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
            min_size=1, max_size=3),  # digits, but not ASCII ones
    st.tuples(st.integers(0, 80), st.integers(0, 80)).map("{0[0]}, {0[1]}".format))
_BODIES = st.binary(max_size=100) | st.sampled_from([
    b'{"prompt": "task\\nText:\\nhi"}', b'{"text": "hi"}', b"{}"])
_RAW_REQUESTS = st.builds(
    lambda line, headers, lengths, body: "".join(
        f"{h}\r\n" for h in [line, *headers, *(f"Content-Length: {v}" for v in lengths)]
    ).encode("utf-8", "surrogatepass") + b"\r\n" + body,  # lone surrogates too
    _REQUEST_LINES, st.lists(_HEADER_LINES, max_size=4),
    st.lists(_LENGTHS, max_size=2), _BODIES)


class TestRawRequests:
    """Whatever bytes a client sends, the server answers with an HTTP/1.1
    reply or nothing, prints no traceback, and serves the next client."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(request=_RAW_REQUESTS)
    @example(request=body_head(str(10 ** 20)))
    @example(request="POST /embed HTTP/1.1\r\nX: \ud800\r\n\r\n".encode(
        "utf-8", "surrogatepass"))
    def test_reply_or_none_and_no_traceback(self, server, capfd, request):
        with socket.create_connection(server.server_address[:2], timeout=2) as sock:
            try:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the server answered and closed before it took every byte
            reply = read_to_close(sock)  # returns once the server closes
        assert reply == b"" or reply.startswith(b"HTTP/1.1 ")
        assert "Traceback" not in capfd.readouterr().err
        assert next_client_served(server)


class TestPersonalizeContract:
    def test_echo_returns_user_text(self, endpoint):
        profile = lkb.default_prompt_base().get("Mike")
        out = lkb.personalize_remote("Jane and me in a playful pose.", profile,
                                     "extract", endpoint)
        assert out == "Jane and me in a playful pose."

    def test_multiline_text_survives_echo(self, endpoint):
        profile = lkb.default_prompt_base().get("Mike")
        text = "first line\nsecond line"
        assert lkb.personalize_remote(text, profile, "recover", endpoint) == text

    @settings(max_examples=100, deadline=None)
    @given(text=st.text() | st.lists(st.sampled_from(
        ["\nText:\n", "Text:", "\n", "\r\n", "a", " "])).map("".join))
    @example(text="Mike and Jane\nText:\nin a garden.")
    @example(text="")
    def test_any_text_survives_echo(self, endpoint, text):
        # the echo matches the lkb_enabled=false arm whatever the text holds
        profile = lkb.default_prompt_base().get("Mike")
        assert lkb.personalize_remote(text, profile, "extract", endpoint) == text

    def test_missing_text_field_is_protocol_error(self, canned_server):
        profile = lkb.default_prompt_base().get("Mike")
        for canned in ({"result": "nope"}, {"text": 5}):
            _CannedHandler.canned = canned
            with pytest.raises(ProtocolError, match="text"):
                lkb.personalize_remote("hello", profile, "extract",
                                       canned_endpoint(canned_server))

    def test_timeout_is_transport_error(self, monkeypatch):
        def slow(*args, **kwargs):
            raise TimeoutError("too slow")

        monkeypatch.setattr(socket, "create_connection", slow)
        profile = lkb.default_prompt_base().get("Mike")
        with pytest.raises(TransportError):
            lkb.personalize_remote("hello", profile, "extract",
                                   Endpoint("http://127.0.0.1:1", 50, 0))

    def test_blocking_bounded_by_timeout_budget(self):
        class SleepyHandler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                time.sleep(3.0)

        server = HTTPServer(("127.0.0.1", 0), SleepyHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            ep = Endpoint(f"http://127.0.0.1:{server.server_address[1]}",
                          timeout_ms=200, retries=1)
            profile = lkb.default_prompt_base().get("Mike")
            start = time.monotonic()
            with pytest.raises(TransportError):
                lkb.personalize_remote("hello", profile, "extract", ep)
            elapsed = time.monotonic() - start
            assert elapsed < 1.5  # well under the two full 3 s server sleeps
        finally:
            server.shutdown()
            server.server_close()


class TestEmbedContract:
    def test_remote_matches_builtin_bit_exact(self, endpoint):
        for text in ("the background is a garden", "", "short"):
            local = semeval.embed(text)
            remote = semeval.embed_remote(text, endpoint)
            assert np.array_equal(local.values, remote.values)

    def test_malformed_vector_is_protocol_error(self, canned_server):
        _CannedHandler.canned = {"vector": [1.0, 2.0]}
        with pytest.raises(ProtocolError, match="vector"):
            semeval.embed_remote("hello", canned_endpoint(canned_server))


class TestReplyDecoding:
    """A reply body is decoded once: a 200 that is not a JSON object is a
    ProtocolError, any other status a RemoteServiceError with its detail."""

    @pytest.mark.parametrize("fault", list(DECODE_FAULTS))
    def test_bad_reply_is_protocol_error(self, raw_server, fault):
        _RawHandler.status, _RawHandler.body = 200, DECODE_FAULTS[fault]
        ep = canned_endpoint(raw_server)
        with pytest.raises(ProtocolError, match="response: "):
            post_json(ep, "/embed", {"text": "hello"})

    @pytest.mark.parametrize("fault", list(DECODE_FAULTS))
    def test_bad_reply_recorded_at_its_stage(self, raw_server, fault):
        _RawHandler.status, _RawHandler.body = 200, DECODE_FAULTS[fault]
        cfg = pipeline.PipelineConfig(  # lossless, so only scoring can fail
            snr_db=[float("inf")], embed_backend="remote",
            embed_endpoint=canned_endpoint(raw_server).base_url, retries=0)
        rec = pipeline.run_pipeline(mma.canonical_scene(GARDEN_SCENE), cfg,
                                    *pipeline.load_profiles(cfg))
        assert rec.error_stage == "scoring"
        assert "/embed: response: " in rec.error_message

    @pytest.mark.parametrize("body, detail", [
        (b'{"error": "busy", "message": "overloaded"}', "overloaded"),
        (b'{"error": "busy"}', "busy"),
        (b"{}", ""),
        (b"[1]", "[1]"),
        (b"<html>" + b"x" * 300, "<html>" + "x" * 194),
        (b"[" * 10 ** 5, "[" * 200)],
        ids=["message", "error", "empty-object", "not-an-object", "not-json",
             "nested-too-deep"])
    def test_error_status_is_remote_error(self, raw_server, body, detail):
        _RawHandler.status, _RawHandler.body = 503, body
        with pytest.raises(RemoteServiceError) as info:
            post_json(canned_endpoint(raw_server), "/embed", {"text": "hello"})
        assert str(info.value).endswith(f"/embed: status 503: {detail}")

    def test_redirect_is_remote_error(self, raw_server, monkeypatch):
        ep = canned_endpoint(raw_server)
        monkeypatch.setattr(_RawHandler, "status", 307)
        monkeypatch.setattr(_RawHandler, "body", b'{"error": "moved"}')
        monkeypatch.setattr(_RawHandler, "location", ep.base_url + "/embed")
        with pytest.raises(RemoteServiceError) as info:
            post_json(ep, "/embed", {"text": "hello"})
        assert str(info.value).endswith("/embed: status 307: moved")

    @pytest.mark.parametrize("fault", list(DECODE_FAULTS))
    @pytest.mark.parametrize("route", ["/transform", "/personalize", "/embed",
                                       "scene-record"])
    def test_bad_request_is_400(self, server, route, fault):
        blob = DECODE_FAULTS[fault]
        if route == "scene-record":  # the record inside a valid /transform body
            route, blob = "/transform", json.dumps({
                "source_modality": "image", "target_modality": "text",
                "data": base64.b64encode(blob).decode("ascii")}).encode()
        resp = requests.post(server.url + route, data=blob, timeout=5,
                             headers={VERSION_HEADER: PROTOCOL_VERSION})
        assert resp.status_code == 400
        assert resp.json()["error"] == "request"

    def test_scene_record_with_unknown_key_is_400(self, server):
        record = b'{"backgroud": "a garden", "entities": [["a boy", []]]}'
        resp = requests.post(server.url + "/transform", timeout=5, json={
            "source_modality": "image", "target_modality": "text",
            "data": base64.b64encode(record).decode("ascii")},
            headers={VERSION_HEADER: PROTOCOL_VERSION})
        assert resp.status_code == 400
        assert "unknown scene record keys: ['backgroud']" in resp.json()["message"]


class TestRemoteModeEquivalence:
    def fingerprint(self, rec):
        return (rec.caption, rec.semantics, rec.reference_text, rec.received_text,
                rec.recovered_text, rec.cosine, rec.correct)

    def scenes(self):
        return corpus.synthetic_corpus(4, seed=77)

    def run_all(self, cfg):
        cfg.validate()
        sender, receiver = pipeline.load_profiles(cfg)
        return [self.fingerprint(pipeline.run_pipeline(s, cfg, sender, receiver,
                                                       seed=pipeline.derive_seed(5, i)))
                for i, s in enumerate(self.scenes())]

    def test_remote_mma_matches_mock(self, server):
        mock_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls")
        remote_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls",
                                             mma_backend="remote",
                                             mma_endpoint=server.url)
        assert self.run_all(mock_cfg) == self.run_all(remote_cfg)

    def test_remote_embed_matches_mock(self, server):
        mock_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls")
        remote_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls",
                                             embed_backend="remote",
                                             embed_endpoint=server.url)
        assert self.run_all(mock_cfg) == self.run_all(remote_cfg)

    def test_remote_lkb_echo_matches_passthrough(self, server):
        off_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls",
                                          lkb_enabled=False)
        echo_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls",
                                           lkb_backend="remote",
                                           lkb_endpoint=server.url)
        assert self.run_all(off_cfg) == self.run_all(echo_cfg)

    def test_all_remote_stages_together(self, server):
        mock_cfg = pipeline.PipelineConfig(snr_db=[5.0], estimator="perfect",
                                           lkb_enabled=False)
        remote_cfg = pipeline.PipelineConfig(snr_db=[5.0], estimator="perfect",
                                             mma_backend="remote",
                                             mma_endpoint=server.url,
                                             embed_backend="remote",
                                             embed_endpoint=server.url,
                                             lkb_backend="remote",
                                             lkb_endpoint=server.url)
        assert self.run_all(mock_cfg) == self.run_all(remote_cfg)

    def test_remote_run_makes_no_http_client_connection(self, server, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("an http.client connection was made")

        monkeypatch.setattr(http.client.HTTPConnection, "__init__", refuse)
        mock_cfg = pipeline.PipelineConfig(snr_db=[10.0], estimator="ls",
                                           lkb_enabled=False)
        remote_cfg = pipeline.PipelineConfig(
            snr_db=[10.0], estimator="ls", mma_backend="remote",
            mma_endpoint=server.url, lkb_backend="remote", lkb_endpoint=server.url,
            embed_backend="remote", embed_endpoint=server.url)
        # a thread of its own, so no connection opened earlier is reused
        assert self.run_all(mock_cfg) == on_new_thread(self.run_all, remote_cfg)


def _b64(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner,
                                                                max_size=3),
    max_leaves=8)
_SCENE_LIKE = st.dictionaries(
    st.sampled_from(["entities", "modality", "background", "pose"]), _JSON)
# each field the clients read: any JSON value, or one shaped close to valid
_REPLIES = st.fixed_dictionaries({}, optional={
    "target_modality": _JSON,
    "data": _JSON | st.text() | st.binary().map(_b64) | (_JSON | _SCENE_LIKE).map(
        lambda v: _b64(json.dumps(v).encode("utf-8"))),
    "text": _JSON,
    "vector": _JSON | st.tuples(st.integers(0, semeval.DIM - 1), _JSON).map(
        lambda at: [0.5] * at[0] + [at[1]] + [0.5] * (semeval.DIM - 1 - at[0])),
})
_CLIENTS = {
    "caption": lambda ep: mma.transform_remote(GARDEN_SCENE, "text", ep),
    "to-scene": lambda ep: mma.transform_remote(GARDEN_CAPTION, "image", ep),
    "personalize": lambda ep: lkb.personalize_remote(
        "hello", lkb.default_prompt_base().get("Mike"), "extract", ep),
    "embed": lambda ep: semeval.embed_remote("hello", ep),
}


class TestArbitraryReplies:
    """Whatever JSON object a service answers, a client returns or raises
    ProtocolError."""

    @pytest.mark.parametrize("client", list(_CLIENTS))
    @settings(max_examples=300, deadline=None)
    @given(reply=_REPLIES)
    @example(reply={"target_modality": "text", "data": "\u00e9", "text": 5,
                    "vector": ["a"] * semeval.DIM})
    def test_returns_or_raises_protocol_error(self, client, reply):
        def post_json(ep, path, body):
            return reply
        with mock.patch.object(mma, "post_json", post_json), \
                mock.patch.object(lkb, "post_json", post_json), \
                mock.patch.object(semeval, "post_json", post_json):
            try:
                _CLIENTS[client](Endpoint("http://replies.invalid"))
            except ProtocolError:
                pass
