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
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .catalog import CatalogError
from .plant import PlantFault, PlantSim

DEFAULT_PORT = 5010

# Largest request body a handler reads; longer bodies are refused unread.
MAX_BODY_BYTES = 1 << 20

_FUNCTIONALITY_RE = re.compile(r"^/([^/]+)/functionalit(?:ies|y)/([^/]+)$")
_SKILL_RE = re.compile(r"^/([^/]+)/skills/([^/]+)$")
_MODULE_STATE_RE = re.compile(r"^/([^/]+)/state$")


# The JSON type each request body field must have unless it is null.
_FIELD_TYPES = {"params": dict, "workpiece_id": str, "detail": str}


def call_result(status: int, payload: dict) -> dict:
    """One plant call's (HTTP status, payload) as the orchestrator records
    it: 200 is ok, 409 a fault (a violated precondition), anything else an
    error."""
    if status == 200:
        return {"status": "ok", "reason": None, "state_version": payload.get("state_version")}
    if status == 409:
        return {"status": "fault", "reason": payload.get("reason", "precondition violated"), "state_version": None}
    return {"status": "error", "reason": payload.get("reason", f"HTTP {status}"), "state_version": None}


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
# HTTP plumbing, shared with the stub completions server

class JsonHandler(BaseHTTPRequestHandler):
    """Request handler base: JSON replies, a bounded body read, no logging."""

    # Seconds a socket read or write may wait, so a client that stops
    # sending cannot hold a handler thread.
    timeout = 10.0

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The request body; ValueError when Content-Length is not a number
        from 0 to MAX_BODY_BYTES (then nothing is read), or the client ends
        the body early or does not send it within `timeout`."""
        header = self.headers.get("Content-Length", "0")
        length = int(header) if header.strip().isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            raise ValueError(f"Content-Length must be a number from 0 to {MAX_BODY_BYTES}, got {header!r}")
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            raise ValueError(f"body of {length} bytes did not arrive within {self.timeout}s") from None
        if len(raw) != length:
            raise ValueError(f"body ended after {len(raw)} of {length} bytes")
        return raw

    def log_message(self, format: str, *args) -> None:
        pass  # diagnostics go through the replies, not stderr noise


class BackgroundServer(ThreadingHTTPServer):
    """Threaded HTTP server that serves on a background thread between
    `start()` and `stop()`, or for the span of a `with` block."""

    daemon_threads = True
    _thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def handle_error(self, request, client_address) -> None:
        # A client that hung up before its reply is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _PlantHandler(JsonHandler):
    server: "PlantService"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
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


def serve_plant(sim: PlantSim, host: str = "127.0.0.1", port: int = 0) -> PlantService:
    """Start a plant service on a background thread; port 0 picks a free one."""
    return PlantService(sim, host=host, port=port).start()
