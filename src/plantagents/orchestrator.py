"""End-to-end task execution: manager plans, operators expand transports,
every service call lands in an ordered trace.

The agents are stateless: each call rebuilds its prompt from the registry.
Dispatch is strictly sequential (plan order is the contract) and stops at
the first fault; the trace then records exactly one non-ok entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import requests

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
from .service import call_result
from .tasks import TaskSpec, bundled_task_for
from .validation import function_step_params, goal_details, plan_route, validate_grammar

PLANT_TIMEOUT_SECONDS = 10.0


class OrchestrationError(Exception):
    """An agent-level step failed before any service call could happen."""


@dataclass
class TraceRecord:
    kind: str  # "skill" | "functionality" | "agent"
    name: str
    endpoint: str
    request: dict
    status: str  # "ok" | "fault" | "error"
    reason: str | None = None
    state_version: int | None = None
    transport_index: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "endpoint": self.endpoint,
            "request": self.request,
            "status": self.status,
            "reason": self.reason,
            "state_version": self.state_version,
            "transport_index": self.transport_index,
        }


@dataclass
class ExecutionTrace:
    task_text: str
    backend_id: str
    outcome: str = "aborted"
    abort_reason: str | None = None
    skill_plan: list[str] | None = None
    records: list[TraceRecord] = field(default_factory=list)
    exchanges: list[dict] = field(default_factory=list)
    start_state: dict | None = None
    final_state: dict | None = None

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


class HttpPlant:
    """The plant port for a plant service reached over HTTP."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")
        self.session = requests.Session()

    def state(self) -> dict:
        url = f"{self.base_url}/plant/state"
        try:
            response = self.session.get(url, timeout=PLANT_TIMEOUT_SECONDS)
        except requests.RequestException as exc:
            raise OrchestrationError(f"connection error: {exc}") from exc
        if response.status_code != 200:
            raise OrchestrationError(f"HTTP {response.status_code} from {url}")
        try:
            return response.json()
        except ValueError as exc:
            raise OrchestrationError(f"non-JSON response from {url}") from exc

    def call(self, url: str, body: dict) -> dict:
        try:
            response = self.session.post(url, json=body, timeout=PLANT_TIMEOUT_SECONDS)
        except requests.RequestException as exc:
            return {"status": "error", "reason": f"connection error: {exc}", "state_version": None}
        try:
            payload = response.json()
        except ValueError:
            payload = {}
        return call_result(response.status_code, payload if isinstance(payload, dict) else {})


def perform_skill_via_operator(
    registry: Registry,
    module_id: str,
    demand_text: str,
    backend: CompletionBackend,
    plant: PlantPort,
    exchanges: list[dict] | None = None,
) -> list[tuple[FunctionStep, dict]]:
    """Expand one transport demand into functionality calls and run them.

    Returns (step, response) pairs in call order; each response is the
    call's ok/fault/error dict plus the `request` body it was given.
    Dispatch stops after the first non-ok response, so only the last pair
    can be non-ok.  Raises OrchestrationError when the completion or its
    parse fails, before any call is made.  Parsed URLs are canonicalized
    and must be registered in the catalog; unregistered endpoints are
    refused, not called.
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

    allowed = registry.known_endpoints()
    pairs: list[tuple[FunctionStep, dict]] = []
    for step in steps:
        url = canonical_url(step.url)
        try:
            body, refusal = {"params": function_step_params(registry, step)}, None
        except PlantFault as exc:
            body, refusal = {"params": {}}, exc.reason
        if url not in allowed:
            refusal = f"unregistered endpoint: {step.url}"
        response = plant.call(url, body) if refusal is None else {"status": "error", "reason": refusal}
        pairs.append((step, {**response, "request": body}))
        if response["status"] != "ok":
            break
    return pairs


def run_task(
    task_text: str,
    backend: CompletionBackend,
    registry: Registry,
    plant: str | PlantPort,
    task_spec: TaskSpec | None = None,
) -> ExecutionTrace:
    """Run one task end to end against a plant.

    `plant` is a plant port or the base URL of a plant service.  The
    registry must describe the plant being called (rebase it onto the
    service URL first).  Failures of any stage produce an aborted trace
    whose last record carries the reason; this function does not raise for
    them.
    """
    trace = ExecutionTrace(task_text=task_text, backend_id=backend.backend_id)
    if isinstance(plant, str):
        plant = HttpPlant(plant)

    try:
        state = plant.state()
    except OrchestrationError as exc:
        return _abort(trace, "plant", f"plant unreachable: {exc}")
    trace.start_state = state
    workpieces = state.get("workpieces", {})
    if len(workpieces) != 1:
        return _abort(trace, "plant", f"plant must hold exactly one workpiece, found {len(workpieces)}")
    wp_id, wp = next(iter(workpieces.items()))
    wp_module = wp.get("location")
    if wp_module == ON_ROBOT:
        return _abort(trace, "plant", "workpiece is already on the transport robot")

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
        task_spec = bundled_task_for(task_text)
    details = goal_details(task_spec, registry) if task_spec else {}

    robot = registry.transport_module()
    transport_index = 0
    for step in plan_route(registry, plan.steps, wp_module):
        # Every route step becomes (name, url, response) calls, dispatched
        # up to the first non-ok one; a transport is several, a skill one.
        if step.transport:
            transport_index += 1
            assert step.start is not None and step.target is not None
            demand = render_transport_demand(registry, step.start, step.target)
            try:
                pairs = perform_skill_via_operator(
                    registry, robot.id, demand, backend, plant, trace.exchanges
                )
            except OrchestrationError as exc:
                return _abort(trace, "operator", str(exc))
            kind, index = "functionality", transport_index
            calls = [(fn_step.action, fn_step.url, response) for fn_step, response in pairs]
        else:
            skill = registry.skill(step.code)
            body = {"workpiece_id": wp_id, "detail": details.get(step.code)}
            kind, index = "skill", None
            calls = [(step.code, skill.endpoint, {**plant.call(skill.endpoint, body), "request": body})]
        for name, url, response in calls:
            trace.records.append(
                TraceRecord(
                    kind=kind,
                    name=name,
                    endpoint=canonical_url(url),
                    request=response["request"],
                    status=response["status"],
                    reason=response.get("reason"),
                    state_version=response.get("state_version"),
                    transport_index=index,
                )
            )
            if response["status"] != "ok":
                trace.abort_reason = response.get("reason") or "service call failed"
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
