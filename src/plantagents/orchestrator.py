"""End-to-end task execution: manager plans, operators expand transports,
every service call lands in an ordered trace.

The agents are stateless: each call rebuilds its prompt from the registry.
Dispatch is strictly sequential (plan order is the contract) and stops at
the first fault; the trace then records exactly one non-ok entry.
"""

from __future__ import annotations

import functools
import io
import json
import select
import socket
from collections.abc import Sequence
from pathlib import Path
from typing import Protocol
from urllib.parse import urlsplit

from .backends import BackendError, CompletionBackend, CompletionRequest
from .catalog import CatalogError, Registry, canonical_url
from .parsing import FunctionStep, ParseError, parse_function_steps, parse_skill_sequence
from .plant import ON_ROBOT, PlantFault
from .prompts import (
    PromptError,
    build_manager_prompt,
    build_operator_prompt,
    render_transport_demand,
)
from .service import FramingError, call_result, read_reply
from .tasks import TaskSpec, bundled_task_specs, find_task_spec
from .validation import function_step_params, goal_details, plan_route, validate_grammar

PLANT_TIMEOUT_SECONDS = 10.0


class OrchestrationError(Exception):
    """An agent-level step failed before any service call could happen."""


class TraceRecord:
    def __init__(self, kind: str, name: str, endpoint: str, request: dict, status: str, reason: str | None = None,
                 state_version: int | None = None, transport_index: int | None = None) -> None:
        self.kind = kind  # "skill" | "functionality" | "agent"
        self.name, self.endpoint, self.request = name, endpoint, request
        self.status = status  # "ok" | "fault" | "error"
        self.reason, self.state_version, self.transport_index = reason, state_version, transport_index

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in the order `__init__` sets them


class ExecutionTrace:
    def __init__(self, task_text: str, backend_id: str) -> None:
        self.task_text, self.backend_id = task_text, backend_id
        self.outcome = "aborted"
        self.abort_reason: str | None = None
        self.skill_plan: list[str] | None = None
        self.records: list[TraceRecord] = []
        self.exchanges: list[dict] = []
        self.start_state: dict | None = None
        self.final_state: dict | None = None

    def transport_expansions(self) -> list[list[TraceRecord]]:
        """Functionality records grouped by transport, in plan order."""
        groups: dict[int, list[TraceRecord]] = {}
        for record in self.records:
            if record.kind == "functionality" and record.transport_index is not None:
                groups.setdefault(record.transport_index, []).append(record)
        return [groups[i] for i in sorted(groups)]

    def to_dict(self) -> dict:
        return {
            "task_text": self.task_text,
            "backend_id": self.backend_id,
            "outcome": self.outcome,
            "abort_reason": self.abort_reason,
            "skill_plan": self.skill_plan,
            "records": [r.to_dict() for r in self.records],
            "exchanges": self.exchanges,
            "start_state": self.start_state,
            "final_state": self.final_state,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), "utf-8")


class PlantPort(Protocol):
    """What run_task needs of a plant: `service.LocalPlant` in-process, or
    `HttpPlant` for a plant service.

    `state()` returns the plant snapshot and raises OrchestrationError when
    the plant cannot give one; `call(url, body)` runs one service call and
    returns its ok/fault/error dict (see `service.call_result`).
    """

    def state(self) -> dict: ...

    def call(self, url: str, body: dict) -> dict: ...


def _http_origin(url: str) -> tuple[str, int] | None:
    """(host, port) of an http:// URL with an ASCII host; None for any
    other URL."""
    parts = urlsplit(url)
    try:
        port = parts.port or 80
    except ValueError:  # a port that is not a number from 0 to 65535
        return None
    if parts.scheme != "http" or not parts.hostname or not parts.netloc.isascii():
        return None
    return parts.hostname, port


@functools.lru_cache(maxsize=128)
def _request_path(base_url: str, url: str) -> str:
    """The path a request for `url` sends to the plant at `base_url`; raises
    FramingError (never cached) for a base URL that is not http://, a URL
    on another scheme, host or port, or a path a request line cannot carry."""
    origin = _http_origin(base_url)
    if origin is None:
        raise FramingError(f"not an http:// plant URL: {base_url!r}")
    if _http_origin(url) != origin:
        raise FramingError(f"{url} is not on the plant at {base_url}")
    path = urlsplit(url).path
    if not (path.isascii() and path.isprintable()) or " " in path:
        raise FramingError(f"{url} has a character a request path cannot carry")
    return path


class _SocketStream(io.RawIOBase):
    """A socket as the raw stream under `HttpPlant`'s reply reader.  While
    `nowait` is set a read returns at once with nothing, so the reader's
    `peek` shows only the bytes it already holds."""

    nowait = False

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        return None if self.nowait else self._sock.recv_into(buffer)


class HttpPlant:
    """The plant port for a plant service reached over HTTP.

    One TCP connection to `base_url` stays open across calls, with no proxy
    lookup: the plant is always an explicit URL.  A call sends only its
    URL's path; a URL on another scheme, host or port gets an `error`
    result and nothing is sent.  Each request is one write; each reply is
    read by Content-Length only (see `service.read_reply`).
    """

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")
        self._origin = _http_origin(self.base_url)
        self._host = urlsplit(self.base_url).netloc.rpartition("@")[2]
        self._sock: socket.socket | None = None
        self._reader = None

    def close(self) -> None:
        """Close the kept-alive connection, which frees its handler thread."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "HttpPlant":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def state(self) -> dict:
        url = f"{self.base_url}/plant/state"
        try:
            status, raw = self._round_trip("GET", url)
        except (OSError, FramingError) as exc:
            raise OrchestrationError(f"connection error: {exc}") from exc
        if status != 200:
            raise OrchestrationError(f"HTTP {status} from {url}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise OrchestrationError(f"non-JSON response from {url}") from exc

    def call(self, url: str, body: dict) -> dict:
        try:
            status, raw = self._round_trip("POST", url, json.dumps(body).encode("utf-8"))
        except (OSError, FramingError) as exc:
            return {"status": "error", "reason": f"connection error: {exc}", "state_version": None}
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {}
        return call_result(status, payload if isinstance(payload, dict) else {})

    def _round_trip(self, method: str, url: str, body: bytes | None = None) -> tuple[int, bytes]:
        """One request on the kept-alive connection: (HTTP status, reply
        body).  Raises OSError or FramingError when it fails, FramingError
        also when `url` is not on the plant."""
        head = f"{method} {_request_path(self.base_url, url)} HTTP/1.1\r\nHost: {self._host}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        request = (head + "\r\n").encode("ascii") + (body or b"")
        # An idle socket that polls readable was closed by the service (after
        # its idle timeout, say) or holds bytes no request asked for.
        if self._sock is not None and self._idle.poll(0):
            self.close()
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(request)
            status, reply, close = read_reply(self._reader)
        except BaseException:
            self.close()  # a half-done exchange must not be reused
            raise
        # Bytes read past the reply were never asked for, and the next reply
        # would be read from them.
        self._reader.raw.nowait = True
        stray = self._reader.peek(1)
        self._reader.raw.nowait = False
        if close or stray:
            self.close()
        return status, reply

    def _connect(self) -> None:
        self._sock = socket.create_connection(self._origin, timeout=PLANT_TIMEOUT_SECONDS)
        self._reader = io.BufferedReader(_SocketStream(self._sock))
        self._idle = select.poll()
        self._idle.register(self._sock, select.POLLIN)
        # A request is one write, so Nagle's algorithm has nothing to
        # coalesce; off, it never holds one back for a delayed ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def perform_skill_via_operator(
    registry: Registry,
    module_id: str,
    demand_text: str,
    backend: CompletionBackend,
    plant: PlantPort,
    exchanges: list[dict] | None = None,
) -> list[TraceRecord]:
    """Expand one transport demand into functionality calls and run them.

    Returns the trace records of `dispatch_function_steps`.
    Raises OrchestrationError when the completion or its parse fails,
    before any call is made.
    """
    try:
        prompt = build_operator_prompt(registry, module_id, demand_text)
    except (PromptError, CatalogError) as exc:
        raise OrchestrationError(f"operator prompt failed: {exc}") from exc
    try:
        result = backend.complete(CompletionRequest(prompt=prompt))
    except BackendError as exc:
        raise OrchestrationError(f"operator completion failed: {exc}") from exc
    if exchanges is not None:
        exchanges.append(
            {"agent": "operator", "demand": demand_text, "prompt": prompt, "completion": result.text}
        )
    try:
        steps = parse_function_steps(result.text)
    except ParseError as exc:
        raise OrchestrationError(f"operator output unparseable: {exc}") from exc
    return dispatch_function_steps(registry, steps, plant)


def dispatch_function_steps(
    registry: Registry,
    steps: Sequence[FunctionStep],
    plant: PlantPort,
) -> list[TraceRecord]:
    """Call each parsed functionality step on the plant, in order.

    Returns a trace record per call, in call order, with no transport index.
    Dispatch stops after the first non-ok call, so only the last record can
    be non-ok.  Parsed URLs are canonicalized and must be registered in the
    catalog; unregistered endpoints are refused, not called.
    """
    allowed = registry.known_endpoints()
    records: list[TraceRecord] = []
    for step in steps:
        url = canonical_url(step.url)
        try:
            body, refusal = {"params": function_step_params(registry, step)}, None
        except PlantFault as exc:
            body, refusal = {"params": {}}, exc.reason
        if url not in allowed:
            refusal = f"unregistered endpoint: {step.url}"
        records.append(_plant_call(plant, "functionality", step.action, url, body, refusal))
        if records[-1].status != "ok":
            break
    return records


def _plant_call(plant: PlantPort, kind: str, name: str, url: str, body: dict, refusal: str | None) -> TraceRecord:
    """One plant call as its trace record, at the canonical endpoint.  With a
    `refusal` nothing is called, and the record is an error for that reason."""
    response = plant.call(url, body) if refusal is None else {"status": "error", "reason": refusal}
    return TraceRecord(kind, name, canonical_url(url), body, response["status"], response.get("reason"),
                       response.get("state_version"))


def run_task(
    task_text: str,
    backend: CompletionBackend,
    registry: Registry,
    plant: str | PlantPort,
    task_spec: TaskSpec | None = None,
) -> ExecutionTrace:
    """Run one task end to end against a plant.

    `plant` is a plant port or the base URL of a plant service; for a URL
    the run opens an `HttpPlant` and closes it before returning.  The
    registry must describe the plant being called (rebase it onto the
    service URL first).  Failures of any stage produce an aborted trace
    whose last record carries the reason; this function does not raise for
    them.
    """
    if isinstance(plant, str):
        with HttpPlant(plant) as port:
            return _run_on_port(task_text, backend, registry, port, task_spec)
    return _run_on_port(task_text, backend, registry, plant, task_spec)


def _run_on_port(
    task_text: str,
    backend: CompletionBackend,
    registry: Registry,
    plant: PlantPort,
    task_spec: TaskSpec | None,
) -> ExecutionTrace:
    trace = ExecutionTrace(task_text=task_text, backend_id=backend.backend_id)
    try:
        state = plant.state()
    except OrchestrationError as exc:
        return _abort(trace, "plant", f"plant unreachable: {exc}")
    if not isinstance(state, dict):
        return _abort(trace, "plant", f"plant state is not a JSON object: {type(state).__name__}")
    trace.start_state = state
    workpieces = state.get("workpieces", {})
    if not isinstance(workpieces, dict) or not all(isinstance(wp, dict) for wp in workpieces.values()):
        return _abort(trace, "plant", "plant state's workpieces must be an object of objects")
    if len(workpieces) != 1:
        return _abort(trace, "plant", f"plant must hold exactly one workpiece, found {len(workpieces)}")
    wp_id, wp = next(iter(workpieces.items()))
    wp_module = wp.get("location")
    if wp_module == ON_ROBOT:
        return _abort(trace, "plant", "workpiece is already on the transport robot")
    if not (isinstance(wp_module, str) and registry.has_module(wp_module)):
        return _abort(trace, "plant", f"plant state puts the workpiece at no catalog module: {wp_module!r}")

    try:
        prompt = build_manager_prompt(registry, task_text)
    except (PromptError, CatalogError) as exc:
        return _abort(trace, "manager", f"prompt failed: {exc}")
    try:
        result = backend.complete(CompletionRequest(prompt=prompt))
    except BackendError as exc:
        return _abort(trace, "manager", f"completion failed: {exc}")
    trace.exchanges.append({"agent": "manager", "prompt": prompt, "completion": result.text})

    try:
        plan = parse_skill_sequence(result.text)
    except ParseError as exc:
        return _abort(trace, "manager", f"parse failed: {exc}")
    trace.skill_plan = list(plan.steps)

    violations = validate_grammar(plan.steps, registry)
    if violations:
        summary = "; ".join(f"rule {v.rule}: {v.message}" for v in violations)
        return _abort(trace, "manager", f"grammar violation: {summary}")

    if task_spec is None:
        task_spec = find_task_spec(bundled_task_specs(), task_text)
    try:
        details = goal_details(task_spec, registry) if task_spec else {}
    except CatalogError as exc:  # a goal feature no catalog skill provides
        return _abort(trace, "manager", f"task not achievable: {exc}")

    robot = registry.transport_module()
    transport_index = 0
    for step in plan_route(registry, plan.steps, wp_module):
        # A transport is several functionality calls, a skill one call; the
        # run ends at the first non-ok record, which dispatch leaves last.
        if step.transport:
            transport_index += 1
            assert step.start is not None and step.target is not None
            try:
                # The catalog allows a module without a transport phrase.
                demand = render_transport_demand(registry, step.start, step.target)
                records = perform_skill_via_operator(
                    registry, robot.id, demand, backend, plant, trace.exchanges
                )
            except (PromptError, OrchestrationError) as exc:
                return _abort(trace, "operator", str(exc))
            for record in records:
                record.transport_index = transport_index
        else:
            body = {"workpiece_id": wp_id, "detail": details.get(step.code)}
            records = [_plant_call(plant, "skill", step.code, registry.skill(step.code).endpoint, body, None)]
        trace.records += records
        if records[-1].status != "ok":
            trace.abort_reason = records[-1].reason
            return trace

    try:
        trace.final_state = plant.state()
    except OrchestrationError as exc:
        return _abort(trace, "plant", f"plant state unavailable after completion: {exc}")
    trace.outcome = "completed"
    return trace


# ---------------------------------------------------------------------------

def _abort(trace: ExecutionTrace, stage: str, reason: str) -> ExecutionTrace:
    trace.records.append(
        TraceRecord(kind="agent", name=stage, endpoint="", request={}, status="error", reason=reason)
    )
    trace.outcome = "aborted"
    trace.abort_reason = reason
    return trace
