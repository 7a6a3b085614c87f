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

import io
import json
import re
import selectors
import socket
import socketserver
import sys
import threading
import time
from functools import lru_cache
from http import HTTPStatus
from json.encoder import c_make_encoder, encode_basestring_ascii
from time import gmtime, monotonic

from .catalog import CatalogError
from .jsonread import checked, decode_json, get, members
from .plant import PlantFault, PlantSim

DEFAULT_PORT = 5010

# Largest body read on the plant link, either way; longer ones are refused
# unread.  A plant snapshot is about a kilobyte.
MAX_BODY_BYTES = 1 << 20
_MAXLINE, _MAXHEADERS = 65536, 100  # header line bytes and lines allowed, as in `http.client`

PLANT_TIMEOUT_SECONDS = 10.0  # to read a message once it has begun, to write, and to wait for a request

_POST_ROUTE_RE = re.compile(r"^/([^/]+)/(functionalit(?:ies|y)|skills)/([^/]+)$")
_MODULE_STATE_RE = re.compile(r"^/([^/]+)/state$")
_HTTP_VERSION_RE = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)

_encode_default = json.JSONEncoder().default


def encode_json(value) -> str:
    """`json.dumps(value)`: the C encoder `json.dumps` builds, built with the same arguments but without
    the Python set-up around it.  Its markers dict is new on each call, as there, so a circular value is
    still a ValueError."""
    # (markers, default, encoder, indent, key_separator, item_separator, sort_keys, skipkeys, allow_nan)
    return "".join(c_make_encoder({}, _encode_default, encode_basestring_ascii, None, ": ", ", ", False, False,
                                  True)(value, 0))


@lru_cache(maxsize=256)
def _post_route(path: str) -> tuple[bool, str, str] | None:
    """(whether it names a skill, module id, skill code or functionality name) of a POST path, or None."""
    match = _POST_ROUTE_RE.match(path)
    return None if match is None else (match[2] == "skills", match[1], match[3])


def call_result(status: int, payload: dict) -> dict:
    """One plant call's (HTTP status, payload) as the orchestrator records
    it: 200 is ok, 409 a fault (a violated precondition), anything else an
    error."""
    if status == 200:
        version = payload.get("state_version")
        return {"status": "ok", "reason": None, "state_version": version if type(version) is int else None}
    reason = payload.get("reason")
    if not (isinstance(reason, str) and reason):
        reason = "precondition violated" if status == 409 else f"HTTP {status}"
    return {"status": "fault" if status == 409 else "error", "reason": reason, "state_version": None}


def _read_request(body: dict) -> tuple[dict | None, str | None, str | None]:
    """(params, workpiece_id, detail) of a request body: an object of strings, then two strings; each may
    be null or absent."""
    return (members(body, "params", kind=str, default=None), get(body, "workpiece_id", default=None),
            get(body, "detail", default=None))


class LocalPlant:
    """The plant's service interface in-process: a request path and JSON
    body in, (HTTP status, payload) out.

    It is also a plant port for `orchestrator.run_task`: `state()` and
    `call(path, body)`, which routes the path as given.
    """

    def __init__(self, sim: PlantSim) -> None:
        self.sim = sim

    def state(self) -> dict:
        return self.sim.snapshot()

    def call(self, path: str, body: dict) -> dict:
        return call_result(*self.post(path, body))

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
        """A body whose values are not of the JSON types `_read_request` reads is a 400, whatever the route."""
        try:
            params, workpiece_id, detail = checked(body, dict, _read_request, ValueError, "request body")
        except ValueError as exc:
            return 400, {"status": "error", "reason": str(exc)}
        route = _post_route(path)
        if route is None:
            return 404, {"status": "error", "reason": f"no route {path}"}
        skill, module_id, name = route
        if not self.sim.registry.has_module(module_id):
            return 404, {"status": "error", "reason": f"unknown module {module_id!r}"}
        try:
            if skill:
                version = self._skill(module_id, name, workpiece_id, detail)
            else:
                self.sim.registry.functionality(module_id, name)  # CatalogError unless the module offers it
                version = self.sim.apply_functionality(name, params)
        except CatalogError as exc:
            return 409, {"status": "fault", "reason": str(exc)}
        except PlantFault as exc:
            return 409, {"status": "fault", "reason": exc.reason}
        return 200, {"status": "ok", "state_version": version}

    def _skill(self, module_id: str, code: str, workpiece_id: str | None, detail: str | None) -> int:
        entry = self.sim.registry.skill_entry(code)
        if entry is None or entry[0].id != module_id:
            raise PlantFault(f"module {module_id} offers no skill {code}")
        return self.sim.apply_skill(code, workpiece_id or self.sim.sole_workpiece().id, detail=detail)


# ---------------------------------------------------------------------------
# HTTP plumbing: the plant link's framing, read by both of its ends, and
# the server, shared with the stub completions server

class SocketStream(io.RawIOBase):
    """A plant-link socket as the raw stream under its reader, with the
    link's timeout and Nagle's algorithm off (with it on, a message sent in
    one write can wait 40 ms for a delayed ACK, RFC 1122 4.2.3.2).  While
    `deadline` (a `monotonic()` time) is set, a read waits only for what is
    left of it; while `nowait` is set, it returns nothing without waiting."""

    nowait = False
    deadline: float | None = None

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(PLANT_TIMEOUT_SECONDS)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        if self.nowait:
            return None
        if self.deadline is not None:
            left = self.deadline - monotonic()
            if left <= 0:
                raise TimeoutError("timed out")
            self._sock.settimeout(left)
        return self._sock.recv_into(buffer)

    def start_deadline(self) -> None:
        """Give the message about to be read `PLANT_TIMEOUT_SECONDS` in all."""
        self.deadline = monotonic() + PLANT_TIMEOUT_SECONDS

    def sendall(self, data: bytes) -> None:
        if self._sock.gettimeout() != PLANT_TIMEOUT_SECONDS:  # a read under the deadline shrank it
            self._sock.settimeout(PLANT_TIMEOUT_SECONDS)
        self._sock.sendall(data)


class FramingError(Exception):
    """A message the plant link cannot send or read: a request for a path
    a request line cannot carry, or a head or body its framing refuses.  `status` is
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
    readline = rfile.readline
    for _ in range(_MAXHEADERS):
        line = readline(_MAXLINE + 1)
        if len(line) > _MAXLINE:
            raise FramingError("Line too long", 431)
        name, colon, value = line.partition(b":")
        if not (colon and name and name.strip() == name):
            if line == b"\r\n" or line == b"\n":
                return fields
            raise FramingError(f"Bad header line ({line[:80]!r})" if line else "Head ended before its blank line")
        name, value = name.lower(), value.strip()
        if name == b"content-length" and fields.get(name, value) != value:
            first = fields[name]  # `2` and `02` are one decimal value (RFC 9110 section 8.6)
            if not (first.isdigit() and value.isdigit() and first.lstrip(b"0") == value.lstrip(b"0")):
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
    digits = length.lstrip(b"0")  # converted only when it could be at most `limit`
    size = int(digits or b"0") if length.isdigit() and len(digits) <= len(str(limit)) else -1
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
    connection = fields.get(b"connection")
    close = connection is not None and b"close" in [token.strip() for token in connection.lower().split(b",")]
    return status, read_body(rfile, fields), close


_PHRASES = {status: status.phrase for status in HTTPStatus}
_REPLY_STARTS: dict[tuple[type, int], bytes] = {}  # status line and `Server` by (handler class, status)
_date: tuple[int, bytes] = (0, b"")  # (second, its `Date`): one tuple, so never a mismatched pair
_DAYS = b"Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = b"Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


@lru_cache(maxsize=32)
def _http_version(word: str) -> tuple[int, int] | None:
    """(major, minor) of a request line's `HTTP/x.y`, or None for another word."""
    match = _HTTP_VERSION_RE.fullmatch(word)
    return None if match is None else (int(match[1]), int(match[2]))


def _http_date() -> bytes:
    """Now as an IMF-fixdate, made once a second: a `Date`'s resolution (RFC 9110 section 6.6.1)."""
    global _date
    second, cached = int(time.time()), _date
    if cached[0] != second:
        t = gmtime(second)
        cached = _date = (second, b"%s, %02d %s %04d %02d:%02d:%02d GMT" % (
            _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year, t.tm_hour, t.tm_min, t.tm_sec))
    return cached[1]


class JsonHandler(socketserver.BaseRequestHandler):
    """Request handler base: HTTP/1.1 keep-alive, its own request loop and
    header parse, JSON replies in one write, a bounded body read, no
    logging.  A subclass answers a method in `do_<METHOD>`, from `path`
    and `headers`, with `_read_body` and `_reply`."""

    protocol_version = "HTTP/1.1"  # one connection carries many requests
    server_version = "BaseHTTP/0.6"  # with sys_version, the `Server` that `http.server` sends
    sys_version = "Python/" + sys.version.split()[0]

    def setup(self) -> None:
        self.rfile = io.BufferedReader(SocketStream(self.request))

    def handle(self) -> None:
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """One request, by the stdlib's rules for HTTP/1.1: a 414 for a
        request line over `_MAXLINE` bytes, a 400 for one that is not
        `METHOD PATH HTTP/x.y`, a 505 from HTTP/2 on, a head's status from
        `read_fields` (which gives `self.headers`), a 501 for a method with
        no `do_<METHOD>`.  End of input or a timeout ends the connection;
        a request's deadline starts with its first byte."""
        self.command, self.close_connection = "", True
        stream = self.rfile.raw
        try:
            stream.deadline = None  # a wait for the next request has the plain timeout
            self.rfile.peek(1)
            stream.start_deadline()
            line = self.rfile.readline(_MAXLINE + 1)
            if len(line) > _MAXLINE:
                return self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            requestline = str(line, "iso-8859-1").rstrip("\r\n")
            words = requestline.split()
            if not words:
                return  # end of input, or an empty line
            number = _http_version(words[-1]) if len(words) == 3 else None
            if number is None:
                return self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
            if number[0] >= 2:
                return self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({words[-1]})")
            self.command, self.path, version = words
            self.close_connection = number < (1, 1)
            try:
                self.headers = headers = read_fields(self.rfile)
            except FramingError as exc:
                return self.send_error(exc.status, str(exc))
            connection = headers.get(b"connection", b"").lower()
            if connection in (b"close", b"keep-alive"):
                self.close_connection = connection == b"close"
            if headers.get(b"expect", b"").lower() == b"100-continue" and version >= "HTTP/1.1":
                stream.sendall(self.protocol_version.encode("ascii") + b" 100 Continue\r\n\r\n")
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
        body = encode_json(payload).encode("utf-8")
        start = _REPLY_STARTS.get((type(self), status))
        if start is None:
            start = _REPLY_STARTS[type(self), status] = (
                f"{self.protocol_version} {status:d} {_PHRASES.get(status, '')}\r\n"
                f"Server: {self.server_version} {self.sys_version}\r\n"
            ).encode("latin-1")
        close = b"Connection: close\r\n" if self.close_connection else b""
        self.rfile.raw.sendall(
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
        read, or does not arrive by the request's deadline.  Unless the body
        is read in full the connection closes after the reply, so no
        leftover byte is taken for a next request."""
        close_after = self.close_connection  # as the request's head set it
        self.close_connection = True
        try:
            raw = read_body(self.rfile, self.headers)
        except FramingError as exc:
            raise ValueError(str(exc)) from None
        except TimeoutError:
            raise ValueError(f"body did not arrive within {PLANT_TIMEOUT_SECONDS}s") from None
        self.close_connection = close_after
        return raw


class BackgroundServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP server that serves on a background thread between
    `start()` and `stop()`, or for the span of a `with` block, or in the
    calling thread with `serve()`.  Up to `max_idle_handlers` handler
    threads whose connection ended wait for the next one."""

    allow_reuse_address = True
    # Connects wait in the kernel's queue until accepted; socketserver's 5 made a
    # sixth wait out a SYN retransmit (1 s) whenever the accept loop lagged.
    request_queue_size = socket.SOMAXCONN
    max_idle_handlers = 4
    _thread: threading.Thread | None = None

    def __init__(self, *args, **kwargs) -> None:
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._idle: list[tuple] | None = []  # (thread, wake lock, connection box) each; None once stopped
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
            if self._idle:  # to the thread that idled last
                _, wake, box = self._idle.pop()
                box.append((request, client_address))
                return wake.release()
        threading.Thread(target=self._handler, args=(request, client_address), daemon=True).start()

    def _handler(self, request, client_address) -> None:
        """A handler thread: after each connection, it idles until handed
        the next one, unless the server stops or has enough idle."""
        wake, box = threading.Lock(), [(request, client_address)]
        wake.acquire()
        while box:
            self.process_request_thread(*box.pop())
            with self._connections_lock:
                if self._idle is None or len(self._idle) >= self.max_idle_handlers:
                    return
                self._idle.append((threading.current_thread(), wake, box))
            wake.acquire()  # released with a connection in `box`, or by `stop()`

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
        still gets its reply, then the connection closes and its handler
        thread ends; handler threads left idle end before this returns."""
        if self._thread is not None:
            self._wake_w.send(b"\0")
            self._thread.join()
            self._thread = None
        with self._connections_lock:
            idle, self._idle = self._idle or [], None
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # its handler is closing it
        for thread, wake, _ in idle:
            wake.release()
            thread.join()
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
            body = decode_json(raw) if raw else {}
        except ValueError as exc:  # also JSONDecodeError, UnicodeDecodeError and JSON nested too deeply
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
