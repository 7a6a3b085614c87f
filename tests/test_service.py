import calendar
import contextlib
import email.utils
import errno
import http.client
import io
import json
import re
import select
import socket
import struct
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler
from unittest import mock
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plantagents.service as plant_service
from plantagents import PlantService, PlantSim, serve_plant
from plantagents.service import DEFAULT_PORT, FramingError, JsonHandler, read_fields


def _http(method: str, url: str, body: dict | None = None, data: bytes | None = None):
    """One request on its own `http.client` connection, `body` sent as JSON
    with its Content-Type; the reply's `status_code`, `headers`, `text` and
    `json()`."""
    headers = {}
    if body is not None:
        data, headers = json.dumps(body).encode(), {"Content-Type": "application/json"}
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        conn.request(method, parts.path, data, headers)
        reply = conn.getresponse()
        text = reply.read().decode()
    finally:
        conn.close()
    return types.SimpleNamespace(status_code=reply.status, headers=reply.headers, text=text,
                                 json=lambda: json.loads(text))


@pytest.fixture
def service(registry):
    sim = PlantSim.standard_start(registry)
    srv = serve_plant(sim)
    yield srv
    srv.stop()


def test_default_port_constant():
    assert DEFAULT_PORT == 5010


def test_plant_state(service):
    r = _http("GET", f"{service.base_url}/plant/state")
    assert r.status_code == 200
    state = r.json()
    assert state["version"] == 0
    assert "wp1" in state["workpieces"]
    assert state["robot"]["position"] == "storage_module"


def test_module_state(service):
    r = _http("GET", f"{service.base_url}/storage_module/state")
    assert r.status_code == 200
    body = r.json()
    assert body["module"] == "storage_module"
    assert "wp1" in body["workpieces"]
    assert body["robot_docked_here"] is False


def test_module_state_unknown_module(service):
    r = _http("GET", f"{service.base_url}/drill_module/state")
    assert r.status_code == 404
    assert r.json()["status"] == "error"


def test_unknown_route(service):
    r = _http("GET", f"{service.base_url}/plant/everything")
    assert r.status_code == 404
    r = _http("POST", f"{service.base_url}/some/odd/route", {})
    assert r.status_code == 404


def test_functionality_ok(service):
    url = f"{service.base_url}/robotino_7/functionalities/move_dock"
    r = _http("POST", url, {"params": {"target_module": "storage_module"}})
    assert r.status_code == 200
    assert r.json() == {"status": "ok", "state_version": 1}


def test_functionality_singular_alias(service):
    url = f"{service.base_url}/robotino_7/functionality/move_dock"
    r = _http("POST", url, {"params": {"target_module": "storage_module"}})
    assert r.status_code == 200
    assert r.json()["status"] == "ok"


def test_functionality_fault_is_409(service):
    url = f"{service.base_url}/robotino_7/functionalities/undock"
    r = _http("POST", url, {})
    assert r.status_code == 409
    body = r.json()
    assert body["status"] == "fault"
    assert body["reason"] == "undock: robot not docked"


def test_functionality_unknown_module_404(service):
    url = f"{service.base_url}/robotino_9/functionalities/load"
    r = _http("POST", url, {})
    assert r.status_code == 404


def test_functionality_unknown_name_409(service):
    url = f"{service.base_url}/robotino_7/functionalities/levitate"
    r = _http("POST", url, {})
    assert r.status_code == 409
    assert "levitate" in r.json()["reason"]


def test_functionality_on_module_without_component(service):
    url = f"{service.base_url}/cnc_module/functionalities/move_dock"
    r = _http("POST", url, {})
    assert r.status_code == 409


def test_malformed_body_400(service):
    url = f"{service.base_url}/robotino_7/functionalities/undock"
    r = _http("POST", url, data=b"not json{")
    assert r.status_code == 400
    assert r.json()["status"] == "error"


def test_skill_ok_and_workpiece_defaults(service):
    url = f"{service.base_url}/storage_module/skills/S1"
    r = _http("POST", url, {})
    assert r.status_code == 200
    assert r.json()["status"] == "ok"
    state = _http("GET", f"{service.base_url}/plant/state").json()
    assert state["workpieces"]["wp1"]["in_inventory"] is False


def test_skill_carries_detail(service):
    for name, params in [
        ("move_dock", {"target_module": "storage_module"}),
        ("load", {}),
        ("undock", {}),
        ("move_dock", {"target_module": "painting_module"}),
        ("unload", {}),
    ]:
        r = _http("POST", f"{service.base_url}/robotino_7/functionalities/{name}", {"params": params})
        assert r.status_code == 200, r.text
    r = _http(
        "POST",
        f"{service.base_url}/painting_module/skills/P2",
        {"workpiece_id": "wp1", "detail": "backside customer logo"},
    )
    assert r.status_code == 200
    state = _http("GET", f"{service.base_url}/plant/state").json()
    (feature,) = state["workpieces"]["wp1"]["features"]
    assert feature == {"kind": "paint_pattern", "detail": "backside customer logo"}


def test_skill_wrong_module_409(service):
    url = f"{service.base_url}/cnc_module/skills/S1"
    r = _http("POST", url, {})
    assert r.status_code == 409
    assert "offers no skill" in r.json()["reason"]


def test_skill_fault_propagates_reason(service):
    url = f"{service.base_url}/cnc_module/skills/M1"
    r = _http("POST", url, {"workpiece_id": "wp1"})
    assert r.status_code == 409
    assert "workpiece not at" in r.json()["reason"]


def test_state_version_tracks_mutations(service):
    v0 = _http("GET", f"{service.base_url}/plant/state").json()["version"]
    _http("POST", f"{service.base_url}/storage_module/skills/S1", {})
    _http("POST", f"{service.base_url}/storage_module/skills/S2", {})
    v2 = _http("GET", f"{service.base_url}/plant/state").json()["version"]
    assert v2 == v0 + 2


def test_concurrent_moves_keep_state_consistent(service):
    """Racing conflicting calls: exactly one dock succeeds, state stays sane."""

    def dock(target):
        return _http(
            "POST",
            f"{service.base_url}/robotino_7/functionalities/move_dock",
            {"params": {"target_module": target}},
        ).status_code

    targets = ["cnc_module", "laser_module", "painting_module", "inspection_module"] * 2
    with ThreadPoolExecutor(max_workers=8) as pool:
        statuses = list(pool.map(dock, targets))
    assert statuses.count(200) >= 1
    state = _http("GET", f"{service.base_url}/plant/state").json()
    assert state["version"] == statuses.count(200)
    assert state["robot"]["docked"] is True


def test_get_content_type_json(service):
    r = _http("GET", f"{service.base_url}/plant/state")
    assert r.headers["Content-Type"] == "application/json"
    json.loads(r.text)


@pytest.mark.parametrize(
    "path, body, length, ends_early",
    [
        ("/storage_module/skills/S1", b'{"workpiece_id": ["a"]}', None, False),
        ("/robotino_7/functionalities/move_dock", b'{"params": ["x"]}', None, False),
        ("/robotino_7/functionalities/move_dock", b'{"params": {"target_module": ["x"]}}', None, False),
        ("/robotino_7/functionalities/move_dock", b"{}", "abc", False),
        ("/robotino_7/functionalities/move_dock", b"", "-1", False),
        ("/storage_module/skills/S1", b'{"detail": {"a": 1}}', None, False),
        ("/storage_module/skills/S1", b"", str(10**9), False),
        ("/storage_module/skills/S1", b"\xff{", None, False),
        ("/storage_module/skills/S1", b"[]", None, False),
        ("/storage_module/skills/S1", b"{}", "10", True),
    ],
)
def test_malformed_request_gets_400_json(service, path, body, length, ends_early):
    """Each request gets a 400 JSON reply without touching the plant, and
    the server goes on answering.  With ends_early the client stops sending
    before the body is complete."""
    length = str(len(body)) if length is None else length
    request = (
        f"POST {path} HTTP/1.1\r\nHost: plant\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        if ends_early:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert b"Content-Type: application/json" in head
    assert json.loads(payload)["status"] == "error"

    assert _http("GET", f"{service.base_url}/plant/state").json()["version"] == 0
    r = _http("POST", f"{service.base_url}/storage_module/skills/S1", {})
    assert r.json() == {"status": "ok", "state_version": 1}


def test_a_body_nested_past_the_recursion_limit_gets_a_400_and_the_next_connection_is_served(service):
    """A body nested 100 000 deep is invalid JSON like any other: a 400
    JSON reply, not a dropped connection and a traceback."""
    body = b'{"params": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    request = (b"POST /robotino_7/functionalities/move_dock HTTP/1.1\r\nHost: plant\r\n"
               b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(body), body))
    head, _, payload = _reply_to(service, request).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(payload)["reason"].startswith("malformed request: nested too deeply: ")
    assert _http("GET", f"{service.base_url}/plant/state").json()["version"] == 0


@pytest.mark.parametrize("path, body, reason", [
    ("/storage_module/skills/S1", [], "request body: expected object, got list"),
    ("/nope", "x", "request body: expected object, got string"),
    ("/nope", {"detail": 5}, "detail: expected string, got number"),
    ("/storage_module/skills/S1", {"workpiece_id": ["a"]}, "workpiece_id: expected string, got list"),
    ("/robotino_7/functionalities/move_dock", {"params": ["x"]}, "params: expected object, got list"),
    ("/robotino_7/functionalities/move_dock", {"params": {"target_module": 5}},
     "params.target_module: expected string, got number"),
    ("/robotino_7/functionalities/move_dock", {"params": {"target_module": "cnc_module", "speed": True}},
     "params.speed: expected string, got boolean"),
])
def test_a_body_of_the_wrong_json_types_gets_a_400_naming_its_json_path(service, path, body, reason):
    """The body is read before the route, so an unknown route with a bad
    body is a 400 too; the plant is left as it was."""
    r = _http("POST", service.base_url + path, body)
    assert (r.status_code, r.json()) == (400, {"status": "error", "reason": reason})
    assert _http("GET", f"{service.base_url}/plant/state").json()["version"] == 0


@pytest.mark.parametrize("body", [{}, {"params": None}, {"workpiece_id": None, "detail": None}, {"other": [1]}])
def test_a_body_without_values_or_with_null_ones_is_read_as_empty(service, body):
    r = _http("POST", f"{service.base_url}/storage_module/skills/S1", body)
    assert (r.status_code, r.json()) == (200, {"status": "ok", "state_version": 1})


# A request that announces a 10-byte body and sends 2 bytes of it.
SHORT_BODY_REQUEST = (
    b"POST /storage_module/skills/S1 HTTP/1.1\r\nHost: plant\r\n"
    b"Content-Type: application/json\r\nContent-Length: 10\r\n\r\n{}"
)


def test_held_open_short_body_gets_400_json_after_timeout(service, monkeypatch):
    """A client that keeps the connection open without sending the rest of
    its body gets a 400 JSON reply once the handler's timeout passes."""
    monkeypatch.setattr(plant_service, "PLANT_TIMEOUT_SECONDS", 0.5)
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(SHORT_BODY_REQUEST)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert b"Content-Type: application/json" in head
    assert json.loads(payload)["status"] == "error"

    assert _http("GET", f"{service.base_url}/plant/state").json()["version"] == 0
    r = _http("POST", f"{service.base_url}/storage_module/skills/S1", {})
    assert r.json() == {"status": "ok", "state_version": 1}


def test_a_request_head_sent_a_byte_at_a_time_is_cut_off_at_its_deadline(service, monkeypatch):
    """A request's deadline starts with its first byte, after any idle time
    on a kept-alive connection.  A client that sends its head a byte every
    50 ms, each byte well inside the timeout, loses the connection without
    a reply once `PLANT_TIMEOUT_SECONDS` have passed (with a timeout on each
    read only, a 78-byte head held the handler thread for 3.9 s)."""
    timeout = 0.2
    monkeypatch.setattr(plant_service, "PLANT_TIMEOUT_SECONDS", timeout)
    head = b"GET /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n"
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(head)
        assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
        time.sleep(timeout / 2)  # idle, for less than a timeout
        started = time.monotonic()
        for byte in head:
            sock.sendall(bytes([byte]))
            if select.select([sock], [], [], 0.05)[0]:
                break
        reply = b""
        with contextlib.suppress(ConnectionResetError):  # a byte the handler never read
            reply = _read_to_eof(sock)
        elapsed = time.monotonic() - started
    assert reply == b""
    assert timeout <= elapsed < 2 * timeout


def test_client_gone_before_reply_prints_nothing(service, capfd, monkeypatch):
    """A client that resets its connection before the reply, so that the
    handler's read fails, is not an error worth a traceback on stderr."""
    closed = threading.Event()
    shutdown_request = service.shutdown_request

    def closing(request):
        shutdown_request(request)
        closed.set()

    monkeypatch.setattr(service, "shutdown_request", closing)
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(SHORT_BODY_REQUEST)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # close with a reset
    # The handler has replied, or failed to, and reported any error once it
    # closes its end of the connection.
    assert closed.wait(5), "the handler is still serving the closed connection"
    assert capfd.readouterr().err == ""


def test_a_burst_of_connections_leaves_at_most_the_cap_of_idle_handlers(service):
    """Ten connections open at once get a handler thread each; once they
    close, `max_idle_handlers` of those threads wait for a next connection
    and the rest end, and `stop()` ends the idle ones too."""
    threads_before = set(threading.enumerate())
    request = b"GET /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n"
    with contextlib.ExitStack() as stack:
        socks = [stack.enter_context(socket.create_connection(service.server_address[:2], timeout=5)) for _ in range(10)]
        for sock in socks:
            sock.sendall(request)
        for sock in socks:
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
        assert len(set(threading.enumerate()) - threads_before) == 10  # all ten held open
    _wait_for_the_idle_cap(service, threads_before)
    assert len(set(threading.enumerate()) - threads_before) == service.max_idle_handlers == 4
    # The idle threads serve the next connections.
    assert _http("GET", f"{service.base_url}/plant/state").status_code == 200
    assert len(set(threading.enumerate()) - threads_before) == 4
    service.stop()
    assert set(threading.enumerate()) - threads_before == set()


def test_handoffs_under_contention_lose_no_connection(service):
    """Eight clients open twenty connections each, one after another, while
    the interpreter switches threads every 10 µs: an idle handler thread or
    a new one answers every connection, and afterwards no more threads idle
    than the cap, and `stop()` ends them."""
    threads_before = set(threading.enumerate())

    def client(_):
        for _ in range(20):
            with socket.create_connection(service.server_address[:2], timeout=5) as sock:
                sock.sendall(b"GET /plant/state HTTP/1.1\r\nHost: plant\r\nConnection: close\r\n\r\n")
                assert _read_to_eof(sock).startswith(b"HTTP/1.1 200 ")
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(client, range(8)))
    finally:
        sys.setswitchinterval(interval)
    _wait_for_the_idle_cap(service, threads_before)
    service.stop()
    assert set(threading.enumerate()) - threads_before == set()


def _wait_for_the_idle_cap(service, threads_before):
    deadline = time.monotonic() + 5
    while len(set(threading.enumerate()) - threads_before) > service.max_idle_handlers:
        assert time.monotonic() < deadline, "more handler threads idle than the cap"
        time.sleep(0.01)


# A complete, valid request: if any byte of it ran, the plant's version would move.
SMUGGLED_REQUEST = (
    b"POST /storage_module/skills/S1 HTTP/1.1\r\nHost: plant\r\n"
    b"Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
)


def _read_to_eof(sock) -> bytes:
    reply = b""
    while chunk := sock.recv(4096):
        reply += chunk
    return reply


@pytest.mark.parametrize(
    "head, status",
    [
        (b"POST /storage_module/skills/S1 HTTP/1.1\r\nContent-Length: 99999999\r\n", b"400"),
        (b"POST /storage_module/skills/S1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", b"400"),
        (b"GET /plant/state HTTP/1.1\r\nContent-Length: %d\r\n" % len(SMUGGLED_REQUEST), b"200"),
        (b"GET /plant/state HTTP/1.1\r\nContent-Length: " + b"1" * 5000 + b"\r\n", b"200"),
    ],
    ids=["oversized-length", "chunked", "get-with-body", "get-with-5000-digit-length"],
)
def test_unread_body_is_never_parsed_as_a_next_request(service, head, status):
    """A body the handler does not read closes the connection after the
    reply, so bytes that look like a second request are never run."""
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(head + b"Host: plant\r\n\r\n" + SMUGGLED_REQUEST)
        reply = _read_to_eof(sock)
    assert reply.count(b"HTTP/1.1 ") == 1
    reply_head, _, payload = reply.partition(b"\r\n\r\n")
    assert reply_head.split(b"\r\n")[0].split()[1] == status
    assert b"Content-Type: application/json" in reply_head
    assert b"Connection: close" in reply_head
    json.loads(payload)
    assert _http("GET", f"{service.base_url}/plant/state").json()["version"] == 0


def test_pipelined_requests_on_one_connection_are_both_answered(service):
    request = b"GET /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n" + SMUGGLED_REQUEST.replace(
        b"Host: plant\r\n", b"Host: plant\r\nConnection: close\r\n"
    )
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        reply = _read_to_eof(sock)
    assert reply.count(b"HTTP/1.1 200 ") == 2
    assert reply.endswith(b'{"status": "ok", "state_version": 1}')


def test_bind_to_a_busy_port_raises_oserror_and_closes_its_sockets(registry, monkeypatch):
    opened = []

    class RecordingSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        monkeypatch.setattr(socket, "socket", RecordingSocket)
        with pytest.raises(OSError) as exc:
            PlantService(PlantSim.standard_start(registry), port=listener.getsockname()[1])
    assert exc.value.errno == errno.EADDRINUSE
    # the listening socket and the wake pair
    assert [sock.fileno() for sock in opened] == [-1, -1, -1]


def test_an_unstarted_service_queues_many_connects(registry):
    """Connects wait in the listen backlog until the service serves them,
    many more than socketserver's default of 5; each is then answered."""
    srv = PlantService(PlantSim.standard_start(registry), port=0)
    with contextlib.ExitStack() as stack:
        stack.callback(srv.stop)
        clients = [stack.enter_context(socket.create_connection(srv.server_address[:2], timeout=0.5))
                   for _ in range(20)]
        srv.start()
        for sock in clients:
            sock.settimeout(5)
            sock.sendall(b"GET /plant/state HTTP/1.1\r\nConnection: close\r\n\r\n")
            assert _read_to_eof(sock).startswith(b"HTTP/1.1 200 OK\r\n")


def test_stop_ends_an_idle_kept_alive_connection(registry):
    """`stop()` does not wait out an open, idle HTTP/1.1 connection, and it
    ends that connection: the client sees end of input and the handler
    thread goes away."""
    threads_before = set(threading.enumerate())  # only threads this test starts count
    srv = serve_plant(PlantSim.standard_start(registry))
    conn = http.client.HTTPConnection(*srv.server_address[:2], timeout=5)
    try:
        conn.request("GET", "/plant/state")
        assert conn.getresponse().read()
        started = time.monotonic()
        srv.stop()
        assert time.monotonic() - started < plant_service.PLANT_TIMEOUT_SECONDS / 5
        assert conn.sock.recv(4096) == b""
    finally:
        conn.close()
    deadline = time.monotonic() + 5
    while set(threading.enumerate()) - threads_before:
        assert time.monotonic() < deadline, threading.enumerate()
        time.sleep(0.01)


# -- the handler's own header parse and its one-write reply ---------------------------


def _reply_to(service, request: bytes) -> bytes:
    """Send `request` on a fresh connection; the reply, read to end of input."""
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        return _read_to_eof(sock)


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"GET /plant/state HTTP/1.1\r\nX-Pad: " + b"a" * http.client._MAXLINE + b"\r\n\r\n", b"431"),
        (b"GET /plant/state HTTP/1.1\r\n" + b"X-A: 1\r\n" * http.client._MAXHEADERS + b"\r\n", b"431"),
        (b"GET /plant/state HTTP/2.0\r\n\r\n", b"505"),
        (b"GET /plant/state HTTP/1.1.1\r\n\r\n", b"400"),
        (b"GET /plant/state HTTP/1.\xb2\r\n\r\n", b"400"),
        (b"GET /plant/state HTTX/1.1\r\n\r\n", b"400"),
        (b"GET /plant/state\r\n\r\n", b"400"),
        (b"GET /plant/state HTTP/1.1\r\nno colon here\r\n\r\n", b"400"),
        (b"GET /plant/state HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", b"400"),
        (b"GET /plant/state HTTP/1.1\r\nContent-Length : 0\r\n\r\n", b"400"),
        (b"GET /plant/state HTTP/1.1\r\n: empty name\r\n\r\n", b"400"),
        # RFC 9112 section 6.3: a server must refuse differing Content-Lengths.
        (b"POST /storage_module/skills/S1 HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\n{}", b"400"),
        # A length of more digits than `int` converts is refused unconverted.
        (b"POST /storage_module/skills/S1 HTTP/1.1\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n{}", b"400"),
        # Exactly one byte over the stdlib's 65536-byte bound, so the handler reads all of it.
        (b"GET /" + b"a" * 65532, b"414"),
        (b"BREW /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n", b"501"),
    ],
    ids=["long-line", "too-many-headers", "http2", "three-numbers", "non-ascii-digit", "not-http", "no-version",
         "no-colon", "folded", "space-before-colon", "empty-name", "two-lengths", "5000-digit-length",
         "long-request-line", "unknown-method"],
)
def test_header_parse_refuses_what_it_cannot_read(service, request_bytes, status):
    """The stdlib's limits hold (431 for a line over `_MAXLINE` bytes or
    more than `_MAXHEADERS` lines, 414 for a request line over 65536
    bytes), a request line that is not `METHOD PATH HTTP/x.y` gets a 400,
    HTTP/2 a 505 and an unknown method a 501, and a field line that is no
    `name: value` gets a 400.  Each refusal is a JSON error reply with a
    status line and `Content-Length`, the connection closes, and the
    service goes on answering."""
    reply = _reply_to(service, request_bytes)
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0].startswith(b"HTTP/1.1 " + status + b" ")
    assert b"Content-Type: application/json" in lines
    assert b"Content-Length: %d" % len(body) in lines
    assert b"Connection: close" in lines
    payload = json.loads(body)
    assert payload["status"] == "error"
    assert isinstance(payload["reason"], str) and payload["reason"]
    assert _http("GET", f"{service.base_url}/plant/state").json()["version"] == 0


def test_head_cut_off_before_its_blank_line_is_refused(service):
    """A request head that ends with the connection, before its blank
    line, gets a 400 and is never run."""
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(b"POST /storage_module/skills/S1 HTTP/1.1\r\nHost: plant\r\n")
        sock.shutdown(socket.SHUT_WR)
        reply = _read_to_eof(sock)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert service.sim.state.version == 0


def test_head_is_refused_without_a_body(service):
    """HEAD is no method the plant serves; its 501 reply carries the head a
    GET would, with no body (RFC 9110 section 9.3.2)."""
    reply = _reply_to(service, b"HEAD /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n")
    head, blank, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501 ") and blank and body == b""
    assert b"Connection: close" in head.split(b"\r\n")


def test_header_parse_keeps_the_rules_that_allow_a_request(service):
    """Field names match in any case; a repeated Content-Length of the same
    value is one; of another repeated field the first value counts; 99
    fields are allowed; `Expect: 100-continue` gets its interim reply;
    `Connection: close` closes after the reply."""
    pad = b"X-A: 1\r\n" * (http.client._MAXHEADERS - 7)
    request = (
        b"POST /storage_module/skills/S1 HTTP/1.1\r\nhost: plant\r\nCONTENT-LENGTH: 2\r\ncontent-length: 2\r\n"
        + pad + b"expect: 100-Continue\r\nConnection: Close\r\nconnection: keep-alive\r\n\r\n{}"
    )
    reply = _reply_to(service, request)
    assert reply.startswith(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n")
    assert reply.endswith(b'{"status": "ok", "state_version": 1}')
    assert b"Connection: close" in reply
    chunked = b"POST /storage_module/skills/S1 HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
    assert _reply_to(service, chunked).startswith(b"HTTP/1.1 400 ")
    assert service.sim.state.version == 1


_TCHARS = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
FIELD_NAMES = st.one_of(
    st.sampled_from(["Host", "host", "Connection", "Content-Length", "content-length", "Expect", "X-A"]),
    st.text(_TCHARS, min_size=1, max_size=12),
)
# A field value as RFC 9110 section 5.5 has it: visible characters, inner spaces and tabs.
FIELD_VALUES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, include_characters="\t")).map(str.strip)


@settings(max_examples=150, deadline=None)
@given(
    fields=st.lists(st.tuples(FIELD_NAMES, FIELD_VALUES), max_size=8),
    length=st.sampled_from(["0", "2", "17"]),
    over_limit=st.none() | st.integers(-2, 1),
    pad=st.none() | st.integers(http.client._MAXLINE - 10, http.client._MAXLINE - 8),  # lines of 65535-65537 bytes
    where=st.integers(0, 8),
)
def test_read_fields_agrees_with_the_stdlib(fields, length, over_limit, pad, where):
    """On a well-formed head (every Content-Length the same), `read_fields`
    gives each name the value `http.client.parse_headers(...).get(name)`
    gives, and it refuses with a 431 exactly where the stdlib raises
    `LineTooLong` or "got more than 100 headers".  With `over_limit` the
    head has that many field lines more than the 99 allowed."""
    fields = [(name, length if name.lower() == "content-length" else value) for name, value in fields]
    lines = [f"{name}: {value}\r\n".encode() for name, value in fields]
    if pad is not None:
        lines.insert(min(where, len(lines)), b"X-Pad: " + b"a" * pad + b"\r\n")
    if over_limit is not None:
        lines += [b"X-Filler: 1\r\n"] * (http.client._MAXHEADERS - 1 + over_limit - len(lines))
    head = b"".join(lines) + b"\r\n"
    try:
        expected = http.client.parse_headers(io.BytesIO(head))
    except http.client.HTTPException as exc:  # LineTooLong is one
        assert isinstance(exc, http.client.LineTooLong) or str(exc) == "got more than 100 headers"
        with pytest.raises(FramingError) as refused:
            read_fields(io.BytesIO(head))
        assert refused.value.status == 431
        return
    got = read_fields(io.BytesIO(head))
    assert set(got) == {name.lower().encode() for name in expected.keys()}
    for name in expected.keys():
        assert got[name.lower().encode()] == expected.get(name).encode("latin-1")


def test_a_content_length_repeated_with_leading_zeros_counts_once(service):
    """`2` and `02` are one decimal value, so the pair frames the body as
    the stdlib reads it; `2` and `3` are still refused.  The service reads
    a request's pair by the same rule."""
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 02\r\n\r\n{}"
    assert plant_service.read_reply(io.BytesIO(reply))[:2] == (200, b"{}") == _stdlib_reply(reply)
    with pytest.raises(FramingError, match="Two different Content-Lengths"):
        plant_service.read_reply(io.BytesIO(reply.replace(b"02", b"3")))
    # Compared without converting: more digits than `int` reads are fine.
    padded = reply.replace(b"02", b"0" * 4990 + b"2")
    assert plant_service.read_reply(io.BytesIO(padded))[:2] == (200, b"{}")
    with pytest.raises(FramingError, match="Two different Content-Lengths"):
        plant_service.read_reply(io.BytesIO(padded.replace(b"02", b"03")))
    request = b"POST /storage_module/skills/S1 HTTP/1.1\r\nConnection: close\r\n" + padded.split(b"\r\n", 1)[1]
    assert _reply_to(service, request).endswith(b'{"status": "ok", "state_version": 1}')


class _BytesSocket:
    """What `http.client.HTTPResponse` reads a reply from: a socket whose
    stream holds `data` and then ends."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def _stdlib_reply(data: bytes):
    """(status, body) as `http.client` reads them from `data`, or None when it refuses."""
    response = http.client.HTTPResponse(_BytesSocket(data), method="POST")
    try:
        response.begin()
        return response.status, response.read()
    except http.client.HTTPException:
        return None


def _read_reply(data: bytes):
    """(status, body) as `service.read_reply` reads them from `data`, or None when it refuses."""
    try:
        return plant_service.read_reply(io.BytesIO(data))[:2]
    except FramingError:
        return None


@settings(max_examples=300, deadline=None)
@given(
    interim=st.sampled_from([False, False, False, True]),
    version=st.sampled_from(["HTTP/1.1"] * 4 + ["HTTP/1.0", "HTTP/1.2", "HTTP/0.9", "HTTP/2", "http/1.1", "HTTP/1"]),
    status=st.sampled_from(["200"] * 4 + ["409", "999", "099", "100", "103", "204", "304"]
                           + ["20", "1000", "0200", "+200"]),
    reason=st.sampled_from([" OK", " Not Found", "", " "]),
    fields=st.lists(st.tuples(FIELD_NAMES.filter(lambda n: n.lower() not in ("content-length", "transfer-encoding")),
                              FIELD_VALUES), max_size=3),
    lengths=st.sampled_from([["2"]] * 6 + [["0"], ["7"], [], ["2", "2"], ["2", "7"]])
    | st.lists(st.sampled_from(["0", "2", "7", "02", " 2 ", "+2", "-1", "2_0", "abc", ""]), max_size=2),
    chunked=st.sampled_from([False, False, False, True]),
    body=st.sampled_from([b"{}", b"{}\r\n0\r\n\r\n", b"2\r\n{}\r\n0\r\n\r\n"]) | st.binary(max_size=9),
    cut=st.none() | st.none() | st.none() | st.integers(0, 200),
)
def test_read_reply_agrees_with_the_stdlib(interim, version, status, reason, fields, lengths, chunked, body, cut):
    """`read_reply` and `http.client.HTTPResponse` read the same status and
    body from a reply, or both refuse it, apart from the replies only
    `read_reply` refuses (docs/formats.md, "Plant link framing"): a version
    other than HTTP/1.0 and 1.1, a status that is not three digits from 200
    on or that has no body (1xx, 204, 304), a Content-Length missing, not
    plain digits or given twice with different values, Transfer-Encoding,
    and a head cut off before its blank line."""
    lines = [f"{version} {status}{reason}", *(f"{name}: {value}" for name, value in fields)]
    lines += [f"Content-Length: {length}" for length in lengths]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    head = "".join(f"{line}\r\n" for line in lines).encode("latin-1") + b"\r\n"
    prefix = b"HTTP/1.1 100 Continue\r\n\r\n" if interim else b""
    data = prefix + head + body
    if cut is not None:
        data = data[:cut]
    mine, theirs = _read_reply(data), _stdlib_reply(data)
    if mine is not None:
        assert mine == theirs
        return
    if theirs is None:
        return
    plain = [length.strip() for length in lengths if length.strip().isdigit()]
    only_read_reply_refuses = {
        "version": version not in ("HTTP/1.0", "HTTP/1.1"),
        "status": not (len(status) == 3 and status.isdigit() and 200 <= int(status) and status not in ("204", "304")),
        "interim": interim,
        "length": len(plain) != len(lengths) or not lengths or len(set(map(int, plain))) > 1,
        "transfer-encoding": chunked,
        "cut head": len(data) < len(prefix + head),
    }
    assert any(only_read_reply_refuses.values()), (data, theirs)


class SendallCountingSocket(socket.socket):
    """An accepted socket that records each `sendall`."""

    sent: list[bytes]

    def sendall(self, data, *args):
        self.sent.append(bytes(data))
        return super().sendall(data, *args)


# One of each reply: a 200 (twice), a 409, a 404, a 400 and a refused head's 501.
ONE_OF_EACH_REPLY = [
    b"GET /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n",
    b"POST /storage_module/skills/S1 HTTP/1.1\r\nHost: plant\r\nContent-Length: 2\r\n\r\n{}",
    b"POST /cnc_module/skills/M1 HTTP/1.1\r\nHost: plant\r\nContent-Length: 2\r\n\r\n{}",
    b"GET /nowhere/state HTTP/1.1\r\nHost: plant\r\n\r\n",
    b"POST /storage_module/skills/S1 HTTP/1.1\r\nHost: plant\r\nContent-Length: 1\r\n\r\n{",
    b"BREW /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n",
]


def _sendalls(registry, requests_bytes) -> list[bytes]:
    """Each `sendall` a plant service makes while answering `requests_bytes`
    in turn on one connection."""
    sent: list[bytes] = []

    class CountingService(PlantService):
        def get_request(self):
            connection, address = super().get_request()
            counted = SendallCountingSocket(fileno=connection.detach())
            counted.sent = sent
            return counted, address

    with CountingService(PlantSim.standard_start(registry), port=0) as srv, \
            socket.create_connection(srv.server_address[:2], timeout=5) as sock:
        reader = sock.makefile("rb")
        for request in requests_bytes:
            sock.sendall(request)
            reader.readline()
            while (line := reader.readline()) != b"\r\n":
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            reader.read(length)
        reader.close()
    return sent


def test_each_reply_is_one_sendall(registry):
    """Head and body of every reply, a 200, a 409, a 404, a 400 and the
    refusal of a request head alike, go to the socket in one `sendall`."""
    sent = _sendalls(registry, ONE_OF_EACH_REPLY)
    assert [reply.split(b" ", 2)[1] for reply in sent] == [b"200", b"200", b"409", b"404", b"400", b"501"]
    for reply in sent:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert isinstance(json.loads(body), dict)
        assert b"Content-Length: %d" % len(body) in head


class _StdlibHandler(BaseHTTPRequestHandler):
    """`http.server`'s handler, announcing itself as `JsonHandler` does."""

    protocol_version = JsonHandler.protocol_version
    server_version = JsonHandler.server_version
    sys_version = JsonHandler.sys_version

    def log_message(self, format, *args):
        pass


def _stdlib_head(status: int, length: int, close: bool) -> bytes:
    """The head the stdlib's `send_response` and `send_header` write for a
    JSON reply of `length` bytes."""
    handler = _StdlibHandler.__new__(_StdlibHandler)
    handler.request_version, handler.requestline = "HTTP/1.1", ""
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(length))
    if close:
        handler.send_header("Connection", "close")
    return b"".join(handler._headers_buffer) + b"\r\n"


DATE_LINE = re.compile(rb"\r\nDate: [^\r\n]*\r\n")


def test_reply_heads_are_the_stdlibs_bytes(registry):
    """Each reply's head is byte for byte what `send_response` and
    `send_header` wrote, its Date aside; the refusal of a head closes."""
    for reply in _sendalls(registry, ONE_OF_EACH_REPLY):
        head, blank, body = reply.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        got, dates = DATE_LINE.subn(b"\r\nDate: -\r\n", head + blank)
        want, stdlib_dates = DATE_LINE.subn(b"\r\nDate: -\r\n", _stdlib_head(status, len(body), status == 501))
        assert dates == stdlib_dates == 1
        assert got == want


IMF_FIXDATE = re.compile(r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d (Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
                         r"\d\d:\d\d:\d\d GMT")


def _date_of_reply(service) -> str:
    head = _reply_to(service, b"GET /plant/state HTTP/1.1\r\nConnection: close\r\n\r\n").partition(b"\r\n\r\n")[0]
    [date] = [line[6:] for line in head.split(b"\r\n") if line.startswith(b"Date: ")]
    return date.decode("ascii")


def test_reply_date_is_the_imf_fixdate_of_its_second(service):
    before = int(time.time())
    date = _date_of_reply(service)
    after = int(time.time())
    assert IMF_FIXDATE.fullmatch(date)
    second = int(email.utils.parsedate_to_datetime(date).timestamp())
    assert before <= second <= after
    assert date == email.utils.formatdate(second, usegmt=True)


def test_reply_date_changes_when_the_clock_crosses_a_second(service, monkeypatch):
    """The Date is made once a second and made anew in the next one."""
    clock = types.SimpleNamespace(time=None)
    monkeypatch.setattr(plant_service, "time", clock)
    dates = []
    for now in (1e9 + 0.2, 1e9 + 0.999, 1e9 + 1.0, 1e9 + 1.7, 1e9 + 60.0):
        clock.time = lambda now=now: now
        dates.append(_date_of_reply(service))
    assert dates == ["Sun, 09 Sep 2001 01:46:40 GMT"] * 2 + ["Sun, 09 Sep 2001 01:46:41 GMT"] * 2 + [
        "Sun, 09 Sep 2001 01:47:40 GMT"
    ]


# The seconds around each year's start and each Feb 29 (Mar 1 in other years), to 2**33.
EDGE_SECONDS = st.builds(
    lambda year, month_day, offset: calendar.timegm((year, *month_day, 0, 0, 0)) + offset,
    st.integers(1970, 2242), st.sampled_from([(1, 1), (2, 29), (3, 1)]), st.sampled_from([-86400, -1, 0, 1, 43200]),
).filter(lambda second: 0 <= second <= 2**33)


@settings(max_examples=300, deadline=None)
@given(second=st.integers(0, 2**33) | EDGE_SECONDS)
def test_http_date_is_email_utils_formatdate(second):
    with mock.patch.object(plant_service, "time", types.SimpleNamespace(time=lambda: second + 0.5)):
        date = plant_service._http_date()
    assert date == email.utils.formatdate(second, usegmt=True).encode("ascii")
