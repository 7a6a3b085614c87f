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
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from time import gmtime
from urllib.parse import urlsplit

from .catalog import CatalogError
from .plant import PlantFault, PlantSim

DEFAULT_PORT = 5010

# Largest body read on the plant link, either way; longer ones are refused
# unread.  A plant snapshot is about a kilobyte.
MAX_BODY_BYTES = 1 << 20
_MAXLINE, _MAXHEADERS = 65536, 100  # header line bytes and lines allowed, as in `http.client`

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

class FramingError(Exception):
    """A message the plant link cannot send or read: a request for a URL
    not on the plant, or a head or body its framing refuses.  `status` is
    the HTTP status a server refuses a request with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def read_fields(rfile) -> dict[bytes, bytes]:
    """A message's header fields, read up to and including the blank line
    that ends its head: value by lower-cased name, the first of a repeated
    name.  A line over `_MAXLINE` bytes or more than `_MAXHEADERS` lines is
    a 431.  A field line that is no `name: value` (a fold, space before the
    colon), a head cut off before its blank line and two Content-Lengths of
    different values (RFC 9112 sections 5 and 6.3) are a 400."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAXHEADERS):
        line = rfile.readline(_MAXLINE + 1)
        if len(line) > _MAXLINE:
            raise FramingError("Line too long", 431)
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise FramingError("Head ended before its blank line")
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise FramingError(f"Bad header line ({line[:80]!r})")
        name, value = name.lower(), value.strip()
        if name == b"content-length" and fields.get(name, value) != value:
            first = fields[name]  # `2` and `02` are one decimal value (RFC 9110 section 8.6)
            if not (first.isdigit() and value.isdigit() and int(first) == int(value)):
                raise FramingError("Two different Content-Lengths")
        fields.setdefault(name, value)
    raise FramingError("Too many headers", 431)


def read_body(rfile, fields: dict[bytes, bytes], limit: int = MAX_BODY_BYTES) -> bytes:
    """Exactly Content-Length bytes, none without one.  FramingError (400)
    for Transfer-Encoding or a Content-Length that is no number from 0 to
    `limit` (then nothing is read), and for a body that ends early."""
    if b"transfer-encoding" in fields:
        raise FramingError("Transfer-Encoding is not read; only Content-Length frames a body")
    length = fields.get(b"content-length", b"0")
    size = int(length) if length.isdigit() else -1
    if not 0 <= size <= limit:
        raise FramingError(f"Content-Length must be a number from 0 to {limit}, got {length.decode('latin-1')!r}")
    body = rfile.read(size) if size else b""
    if len(body) != size:
        raise FramingError(f"body ended after {len(body)} of {size} bytes")
    return body


def read_reply(rfile) -> tuple[int, bytes, bool]:
    """One reply: a status line, then `read_fields` and `read_body`, with
    Content-Length required.  Returns (status, body, whether the server
    closes the connection after it).  Raises FramingError for a reply it
    cannot frame, and for a status that has no body (1xx, 204 and 304; RFC
    9112 section 6.3); OSError when the socket fails or times out."""
    line = rfile.readline(_MAXLINE + 1)
    if not line:
        raise FramingError("the plant closed the connection without a reply")
    words = line.split(None, 2)
    status = int(words[1]) if len(words) > 1 and len(words[1]) == 3 and words[1].isdigit() else 0
    if len(line) > _MAXLINE or status < 200 or status in (204, 304) or words[0] not in (b"HTTP/1.0", b"HTTP/1.1"):
        raise FramingError(repr(line[:80]))
    fields = read_fields(rfile)
    if b"content-length" not in fields:
        raise FramingError("reply without Content-Length")
    close = b"close" in [token.strip() for token in fields.get(b"connection", b"").lower().split(b",")]
    return status, read_body(rfile, fields), close


_PHRASES = {status: status.phrase for status in HTTPStatus}
_REPLY_STARTS: dict[tuple[type, int], bytes] = {}  # status line and `Server` by (handler class, status)
_date: tuple[int, bytes] = (0, b"")  # (second, its `Date`): one tuple, so never a mismatched pair
_DAYS = b"Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = b"Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _http_date() -> bytes:
    """Now as an IMF-fixdate, made once a second: a `Date`'s resolution (RFC 9110 section 6.6.1)."""
    global _date
    second, cached = int(time.time()), _date
    if cached[0] != second:
        t = gmtime(second)
        cached = _date = (second, b"%s, %02d %s %04d %02d:%02d:%02d GMT" % (
            _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year, t.tm_hour, t.tm_min, t.tm_sec))
    return cached[1]


class JsonHandler(socketserver.StreamRequestHandler):
    """Request handler base: HTTP/1.1 keep-alive, its own request loop and
    header parse, JSON replies in one write, a bounded body read, no
    logging.  A subclass answers a method in `do_<METHOD>`, from `path`
    and `headers`, with `_read_body` and `_reply`."""

    # One connection carries many requests.  Nagle's algorithm is off: with
    # it, a reply written in two segments waits for the client's delayed
    # ACK, about 40 ms a call (RFC 896, RFC 1122 4.2.3.2).
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # Seconds a socket read or write may wait, so a client that stops
    # sending, or leaves its connection idle, cannot hold a handler thread.
    timeout = 10.0

    server_version = "BaseHTTP/0.6"  # with sys_version, the `Server` that `http.server` sends
    sys_version = "Python/" + sys.version.split()[0]

    def handle(self) -> None:
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """One request, by the stdlib's rules for HTTP/1.1: a 414 for a
        request line over 65536 bytes, a 400 for one that is not `METHOD
        PATH HTTP/x.y`, a 505 from HTTP/2 on, a head's status from
        `read_fields` (which gives `self.headers`), a 501 for a method with
        no `do_<METHOD>`.  End of input or a timeout ends the connection."""
        self.command, self.close_connection = "", True
        try:
            line = self.rfile.readline(65537)
            if len(line) > 65536:
                return self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            requestline = str(line, "iso-8859-1").rstrip("\r\n")
            words = requestline.split()
            if not words:
                return  # end of input, or an empty line
            match = _HTTP_VERSION_RE.fullmatch(words[-1]) if len(words) == 3 else None
            if match is None:
                return self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
            if int(match[1]) >= 2:
                return self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({words[-1]})")
            self.command, self.path, version = words
            self.close_connection = (int(match[1]), int(match[2])) < (1, 1)
            try:
                self.headers = headers = read_fields(self.rfile)
            except FramingError as exc:
                return self.send_error(exc.status, str(exc))
            connection = headers.get(b"connection", b"").lower()
            if connection in (b"close", b"keep-alive"):
                self.close_connection = connection == b"close"
            if headers.get(b"expect", b"").lower() == b"100-continue" and version >= "HTTP/1.1":
                self.wfile.write(self.protocol_version.encode("ascii") + b" 100 Continue\r\n\r\n")
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                return self.send_error(HTTPStatus.NOT_IMPLEMENTED, f"Unsupported method ({self.command!r})")
            method()
        except TimeoutError:
            self.close_connection = True

    def _reply(self, status: int, payload: dict) -> None:
        """Head and body in one write, so in one segment.  The head is what
        `http.server`'s `send_response` and `send_header` wrote, with
        `Connection: close` if the connection closes; a reply to HEAD has
        no body (RFC 9110 9.3.2)."""
        body = json.dumps(payload).encode("utf-8")
        start = _REPLY_STARTS.get((type(self), status))
        if start is None:
            start = _REPLY_STARTS[type(self), status] = (
                f"{self.protocol_version} {status:d} {_PHRASES.get(status, '')}\r\n"
                f"Server: {self.server_version} {self.sys_version}\r\n"
            ).encode("latin-1")
        close = b"Connection: close\r\n" if self.close_connection else b""
        self.wfile.write(
            b"%sDate: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
            % (start, _http_date(), len(body), close, b"" if self.command == "HEAD" else body)
        )

    def send_error(self, code: int, message: str | None = None) -> None:
        """Refuse a request head with a JSON reply, like every other
        refusal; the connection closes after it."""
        self.close_connection = True
        self._reply(code, {"status": "error", "reason": message or _PHRASES.get(code, f"HTTP {code:d}")})

    def _read_body(self) -> bytes:
        """The request body (see `read_body`); ValueError when it cannot be
        read, or does not arrive within `timeout`.  Unless the body is read
        in full the connection closes after the reply, so no leftover byte
        is taken for a next request."""
        close_after = self.close_connection  # as the request's head set it
        self.close_connection = True
        try:
            raw = read_body(self.rfile, self.headers)
        except FramingError as exc:
            raise ValueError(str(exc)) from None
        except TimeoutError:
            raise ValueError(f"body did not arrive within {self.timeout}s") from None
        self.close_connection = close_after
        return raw


class BackgroundServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP server that serves on a background thread between
    `start()` and `stop()`, or for the span of a `with` block, or in the
    calling thread with `serve()`."""

    allow_reuse_address = True
    daemon_threads = True
    _thread: threading.Thread | None = None

    def __init__(self, *args, **kwargs) -> None:
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        # `stop()` wakes the serving loop here; made first, so a failed bind closes it.
        self._wake_r, self._wake_w = socket.socketpair()
        super().__init__(*args, **kwargs)

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
