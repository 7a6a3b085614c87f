"""HTTP service exposing the simulated plant.

Routes mirror the service URLs in the catalog:

    POST /{module_id}/functionalities/{name}   body {"params": {...}}
    POST /{module_id}/functionality/{name}     accepted alias, same behavior
    POST /{module_id}/skills/{code}            body {"workpiece_id": ..., "detail": ...}
    GET  /{module_id}/state
    GET  /plant/state

Successful calls answer 200 {"status": "ok", "state_version": N}; violated
preconditions answer 409 {"status": "fault", "reason": "..."}; malformed
requests answer 400 and unknown routes or modules 404, both with
{"status": "error", "reason": "..."}.

`LocalPlant` holds what a request means; the HTTP handler only moves bytes,
so an in-process run and a run over HTTP see the same answers.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.client import _MAXHEADERS, _MAXLINE, BadStatusLine, HTTPException, RemoteDisconnected
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .catalog import CatalogError
from .plant import PlantFault, PlantSim

DEFAULT_PORT = 5010

# Largest body read on the plant link, either way; longer ones are refused
# unread.  A plant snapshot is about a kilobyte.
MAX_BODY_BYTES = 1 << 20

_FUNCTIONALITY_RE = re.compile(r"^/([^/]+)/functionalit(?:ies|y)/([^/]+)$")
_SKILL_RE = re.compile(r"^/([^/]+)/skills/([^/]+)$")
_MODULE_STATE_RE = re.compile(r"^/([^/]+)/state$")
_HTTP_VERSION_RE = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


# The JSON type each request body field must have unless it is null.
_FIELD_TYPES = {"params": dict, "workpiece_id": str, "detail": str}


def call_result(status: int, payload: dict) -> dict:
    """One plant call's (HTTP status, payload) as the orchestrator records
    it: 200 is ok, 409 a fault (a violated precondition), anything else an
    error."""
    if status == 200:
        return {"status": "ok", "reason": None, "state_version": payload.get("state_version")}
    reason = payload.get("reason")
    if not (isinstance(reason, str) and reason):
        reason = "precondition violated" if status == 409 else f"HTTP {status}"
    return {"status": "fault" if status == 409 else "error", "reason": reason, "state_version": None}


class LocalPlant:
    """The plant's service interface in-process: a request path and JSON
    body in, (HTTP status, payload) out.

    It is also a plant port for `orchestrator.run_task`: `state()` and
    `call(url, body)`, where only the URL's path is routed.
    """

    def __init__(self, sim: PlantSim) -> None:
        self.sim = sim

    def state(self) -> dict:
        return self.sim.snapshot()

    def call(self, url: str, body: dict) -> dict:
        return call_result(*self.post(urlsplit(url).path, body))

    def get(self, path: str) -> tuple[int, dict]:
        if path == "/plant/state":
            return 200, self.sim.snapshot()
        match = _MODULE_STATE_RE.match(path)
        if match:
            try:
                return 200, self.sim.module_snapshot(match.group(1))
            except CatalogError as exc:
                return 404, {"status": "error", "reason": str(exc)}
        return 404, {"status": "error", "reason": f"no route {path}"}

    def post(self, path: str, body: object) -> tuple[int, dict]:
        if not isinstance(body, dict):
            return 400, {"status": "error", "reason": "request body is not a JSON object"}
        for key, kind in _FIELD_TYPES.items():
            if body.get(key) is not None and not isinstance(body[key], kind):
                return 400, {"status": "error", "reason": f"{key} has the wrong JSON type"}
        if not all(isinstance(value, str) for value in (body.get("params") or {}).values()):
            return 400, {"status": "error", "reason": "params values must be strings"}
        match = _FUNCTIONALITY_RE.match(path)
        if match:
            return self._functionality(*match.groups(), body)
        match = _SKILL_RE.match(path)
        if match:
            return self._skill(*match.groups(), body)
        return 404, {"status": "error", "reason": f"no route {path}"}

    def _functionality(self, module_id: str, name: str, body: dict) -> tuple[int, dict]:
        if not self.sim.registry.has_module(module_id):
            return 404, {"status": "error", "reason": f"unknown module {module_id!r}"}
        try:
            self.sim.registry.functionality(module_id, name)
            version = self.sim.apply_functionality(name, body.get("params") or {})
        except CatalogError as exc:
            return 409, {"status": "fault", "reason": str(exc)}
        except PlantFault as exc:
            return 409, {"status": "fault", "reason": exc.reason}
        return 200, {"status": "ok", "state_version": version}

    def _skill(self, module_id: str, code: str, body: dict) -> tuple[int, dict]:
        registry = self.sim.registry
        if not registry.has_module(module_id):
            return 404, {"status": "error", "reason": f"unknown module {module_id!r}"}
        if not registry.has_skill(code) or registry.skill_host(code).id != module_id:
            return 409, {"status": "fault", "reason": f"module {module_id} offers no skill {code}"}
        try:
            workpiece_id = body.get("workpiece_id") or self.sim.sole_workpiece().id
            version = self.sim.apply_skill(code, workpiece_id, detail=body.get("detail"))
        except PlantFault as exc:
            return 409, {"status": "fault", "reason": exc.reason}
        return 200, {"status": "ok", "state_version": version}


# ---------------------------------------------------------------------------
# HTTP plumbing: the plant link's framing, read by both of its ends, and
# the server, shared with the stub completions server

class FramingError(HTTPException):
    """A message on the plant link that its framing cannot read; `status`
    is the HTTP status a server refuses it with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_fields(rfile) -> dict[bytes, bytes]:
    """A message's header fields, read up to and including the blank line
    that ends its head: value by lower-cased name, the first of a repeated
    name.  The stdlib's limits hold: a line over `_MAXLINE` bytes or more
    than `_MAXHEADERS` lines is a 431.  A field line that is no `name:
    value` (a fold, space before the colon), a head cut off before its
    blank line and two different Content-Lengths (RFC 9112 sections 5 and
    6.3) are a 400."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAXHEADERS):
        line = rfile.readline(_MAXLINE + 1)
        if len(line) > _MAXLINE:
            raise FramingError(431, "Line too long")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise FramingError(400, "Head ended before its blank line")
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise FramingError(400, f"Bad header line ({line[:80]!r})")
        name, value = name.lower(), value.strip()
        if name == b"content-length" and fields.get(name, value) != value:
            raise FramingError(400, "Two different Content-Lengths")
        fields.setdefault(name, value)
    raise FramingError(431, "Too many headers")


def read_body(rfile, fields: dict[bytes, bytes], limit: int = MAX_BODY_BYTES) -> bytes:
    """Exactly Content-Length bytes, none without one.  FramingError (400)
    for Transfer-Encoding or a Content-Length that is no number from 0 to
    `limit` (then nothing is read), and for a body that ends early."""
    if b"transfer-encoding" in fields:
        raise FramingError(400, "Transfer-Encoding is not read; only Content-Length frames a body")
    length = fields.get(b"content-length", b"0")
    size = int(length) if length.isdigit() else -1
    if not 0 <= size <= limit:
        got = length.decode("latin-1")
        raise FramingError(400, f"Content-Length must be a number from 0 to {limit}, got {got!r}")
    body = rfile.read(size) if size else b""
    if len(body) != size:
        raise FramingError(400, f"body ended after {len(body)} of {size} bytes")
    return body


def read_reply(rfile) -> tuple[int, bytes, bool]:
    """One reply: a status line, then `read_fields` and `read_body`, with
    Content-Length required.  Returns (status, body, whether the server
    closes the connection after it).  Raises HTTPException for a reply it
    cannot frame; OSError when the socket fails or times out."""
    line = rfile.readline(_MAXLINE + 1)
    if not line:
        raise RemoteDisconnected("the plant closed the connection without a reply")
    words = line.split(None, 2)
    if len(line) > _MAXLINE or len(words) < 2 or words[0] not in (b"HTTP/1.0", b"HTTP/1.1") \
            or len(words[1]) != 3 or not words[1].isdigit():
        raise BadStatusLine(repr(line[:80]))
    fields = read_fields(rfile)
    if b"content-length" not in fields:
        raise HTTPException("reply without Content-Length")
    close = b"close" in [token.strip() for token in fields.get(b"connection", b"").lower().split(b",")]
    return int(words[1]), read_body(rfile, fields), close


_REPLY_STARTS: dict[tuple[type, int], bytes] = {}  # status line and `Server` by (handler class, status)
_date: tuple[int, bytes] = (0, b"")  # (second, its `Date`): one tuple, so never a mismatched pair


def _http_date() -> bytes:
    """Now as an IMF-fixdate, made once a second: a `Date`'s resolution (RFC 9110 section 6.6.1)."""
    global _date
    second, cached = int(time.time()), _date
    if cached[0] != second:
        cached = _date = (second, formatdate(second, usegmt=True).encode("ascii"))
    return cached[1]


class JsonHandler(BaseHTTPRequestHandler):
    """Request handler base: HTTP/1.1 keep-alive, its own header parse,
    JSON replies in one write, a bounded body read, no logging."""

    # One connection carries many requests.  Nagle's algorithm is off: with
    # it, a reply written in two segments waits for the client's delayed
    # ACK, about 40 ms a call (RFC 896, RFC 1122 4.2.3.2).
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # Seconds a socket read or write may wait, so a client that stops
    # sending, or leaves its connection idle, cannot hold a handler thread.
    timeout = 10.0

    def parse_request(self) -> bool:
        """The stdlib's `parse_request` without its `email` header parser,
        which took about 40% of a handler's time.  The request line must be
        `METHOD PATH HTTP/x.y` (else a 400), from HTTP/2 on a 505; a head
        `read_fields` refuses gets its status.  Keep-alive and `Expect:
        100-continue` follow the stdlib's rules for the HTTP/1.1 this
        handler speaks.  `self.headers` is what `read_fields` returns."""
        self.command, self.request_version, self.close_connection = None, self.default_request_version, True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        match = _HTTP_VERSION_RE.fullmatch(words[-1]) if len(words) == 3 else None
        if match is None:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        if int(match[1]) >= 2:
            self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({words[-1]})")
            return False
        self.command, self.path, self.request_version = words
        self.close_connection = (int(match[1]), int(match[2])) < (1, 1)
        try:
            self.headers = headers = read_fields(self.rfile)
        except FramingError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = headers.get(b"connection", b"").lower()
        if connection in (b"close", b"keep-alive"):
            self.close_connection = connection == b"close"
        if headers.get(b"expect", b"").lower() == b"100-continue" and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _reply(self, status: int, payload: dict) -> None:
        """Head and body in one write, so in one segment.  The head is what
        `send_response` and `send_header` wrote, with `Connection: close` if
        the connection closes; a reply to HEAD has no body (RFC 9110 9.3.2)."""
        body = json.dumps(payload).encode("utf-8")
        start = _REPLY_STARTS.get((type(self), status))
        if start is None:
            phrase = self.responses.get(status, ("",))[0]
            start = _REPLY_STARTS[type(self), status] = (
                f"{self.protocol_version} {status:d} {phrase}\r\nServer: {self.version_string()}\r\n"
            ).encode("latin-1")
        close = b"Connection: close\r\n" if self.close_connection else b""
        self.wfile.write(
            b"%sDate: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
            % (start, _http_date(), len(body), close, b"" if self.command == "HEAD" else body)
        )

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Refuse a request head with a JSON reply, not the stdlib's HTML
        page, like every other refusal; the connection closes after it."""
        self.close_connection = True
        reason = message or self.responses.get(code, (f"HTTP {code:d}",))[0]
        self._reply(code, {"status": "error", "reason": reason})

    def _read_body(self) -> bytes:
        """The request body (see `read_body`); ValueError when it cannot be
        read, or does not arrive within `timeout`.  Unless the body is read
        in full the connection closes after the reply, so no leftover byte
        is taken for a next request."""
        close_after = self.close_connection  # as parse_request set it
        self.close_connection = True
        try:
            raw = read_body(self.rfile, self.headers)
        except FramingError as exc:
            raise ValueError(str(exc)) from None
        except TimeoutError:
            raise ValueError(f"body did not arrive within {self.timeout}s") from None
        self.close_connection = close_after
        return raw

    def log_message(self, format: str, *args) -> None:
        pass  # diagnostics go through the replies, not stderr noise


class BackgroundServer(ThreadingHTTPServer):
    """Threaded HTTP server that serves on a background thread between
    `start()` and `stop()`, or for the span of a `with` block, or in the
    calling thread with `serve()`."""

    daemon_threads = True
    _thread: threading.Thread | None = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        # `stop()` writes a byte here to wake the serving loop at once.
        self._wake_r, self._wake_w = socket.socketpair()

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self._thread = threading.Thread(target=self.serve, daemon=True)
        self._thread.start()
        return self

    def serve(self) -> None:
        """`serve_forever` without its poll: the loop sleeps until a client
        connects or `stop()` wakes it, so a stop waits for nothing and an
        idle server takes no CPU.  `start()` runs it on a background
        thread; run in the foreground, it ends on an interrupt, and the
        caller then calls `stop()`."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if self._wake_r in ready:
                    return
                self._handle_request_noblock()  # what serve_forever calls

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A client that hung up before its reply is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def stop(self) -> None:
        """Stop serving.  Open connections end too: a request already sent
        still gets its reply, but then the connection closes, and its
        handler thread ends instead of idling until the handler's timeout."""
        if self._thread is not None:
            self._wake_w.send(b"\0")
            self._thread.join()
            self._thread = None
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # its handler is closing it
        self.server_close()

    def server_close(self) -> None:
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _PlantHandler(JsonHandler):
    server: "PlantService"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        # A GET's body means nothing and is not read; if one was announced,
        # its bytes must not be taken for a next request.
        try:
            read_body(self.rfile, self.headers, limit=0)
        except FramingError:
            self.close_connection = True
        self._reply(*LocalPlant(self.server.sim).get(self.path))

    def do_POST(self) -> None:  # noqa: N802
        try:
            raw = self._read_body()
            body = json.loads(raw) if raw else {}
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            self._reply(400, {"status": "error", "reason": f"malformed request: {exc}"})
            return
        self._reply(*LocalPlant(self.server.sim).post(self.path, body))


class PlantService(BackgroundServer):
    """Threaded HTTP server around one PlantSim instance.

    `sim` is read on every request, so it may be swapped between requests.
    """

    def __init__(self, sim: PlantSim, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        super().__init__((host, port), _PlantHandler)
        self.sim = sim


def serve_plant(sim: PlantSim, port: int = 0) -> PlantService:
    """Start a loopback plant service in the background; port 0 picks a free one."""
    return PlantService(sim, port=port).start()
