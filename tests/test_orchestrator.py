"""End-to-end runs against a live service, plus the abort paths.

The invariant under test throughout: a trace is either all-ok and
"completed", or "aborted" with exactly one non-ok record at the tail.
"""

import hashlib
import json
import re
import select
import socket
import threading
import time
from importlib import resources

import pytest

from plantagents import (
    ExecutionTrace,
    HttpPlant,
    LocalPlant,
    OracleBackend,
    OrchestrationError,
    PlantService,
    PlantSim,
    TraceRecord,
    perform_skill_via_operator,
    run_task,
    serve_plant,
)
from plantagents import service
from plantagents.backends import BackendError, CompletionBackend, CompletionResult
from plantagents.catalog import registry_from_dict
from plantagents.plant import Feature
from plantagents.prompts import fill_transport_output, render_transport_demand
from plantagents.service import BackgroundServer, JsonHandler
from plantagents.validation import check_satisfaction

TRANSPORT_ACTIONS = ["move_dock", "load", "undock", "move_dock", "unload"]


class ScriptedBackend(CompletionBackend):
    """Replays a fixed list of completion texts, then errors out."""

    backend_id = "scripted"

    def __init__(self, texts):
        self._texts = list(texts)

    def complete(self, request):
        if not self._texts:
            raise BackendError("script ran out of lines")
        return CompletionResult(text=self._texts.pop(0), backend_id=self.backend_id, latency_seconds=0.0)


@pytest.fixture
def live(registry, task_specs):
    sim = PlantSim.standard_start(registry)
    srv = serve_plant(sim)
    reg = registry.rebased(srv.base_url)
    backend = OracleBackend(reg, task_specs)
    yield sim, srv, reg, backend
    srv.stop()


def non_ok(trace):
    return [r for r in trace.records if r.status != "ok"]


# -- happy path --------------------------------------------------------------


@pytest.mark.parametrize("spec_index", [0, 1, 2])
def test_oracle_run_completes_bundled_task(registry, task_specs, spec_index):
    spec = task_specs[spec_index]
    sim = PlantSim.standard_start(registry)
    srv = serve_plant(sim)
    try:
        reg = registry.rebased(srv.base_url)
        backend = OracleBackend(reg, task_specs)
        trace = run_task(spec.instruction, backend, reg, srv.base_url)
    finally:
        srv.stop()

    assert trace.outcome == "completed"
    assert trace.abort_reason is None
    assert non_ok(trace) == []
    ok, missing = check_satisfaction(sim, spec)
    assert ok, missing


def test_trace_structure_matches_plan(live, drilled_spec):
    sim, srv, reg, backend = live
    trace = run_task(drilled_spec.instruction, backend, reg, srv.base_url)

    assert trace.skill_plan is not None
    transports = trace.skill_plan.count("T1")
    skills = [c for c in trace.skill_plan if c != "T1"]

    skill_records = [r for r in trace.records if r.kind == "skill"]
    assert [r.name for r in skill_records] == skills

    expansions = trace.transport_expansions()
    assert len(expansions) == transports
    for group in expansions:
        assert [r.name for r in group] == TRANSPORT_ACTIONS
        assert len({r.transport_index for r in group}) == 1

    for record in trace.records:
        assert record.endpoint.startswith(srv.base_url)
    for record in trace.records:
        if record.kind == "functionality":
            assert "/functionalities/" in record.endpoint

    # every successful call bumped the plant version exactly once
    assert trace.start_state["version"] == 0
    assert trace.final_state["version"] == len(trace.records)


def test_exchanges_manager_first_then_operators(live, lasered_spec):
    sim, srv, reg, backend = live
    trace = run_task(lasered_spec.instruction, backend, reg, srv.base_url)

    assert trace.exchanges[0]["agent"] == "manager"
    assert lasered_spec.instruction in trace.exchanges[0]["prompt"]
    operators = [e for e in trace.exchanges if e["agent"] == "operator"]
    assert len(operators) == trace.skill_plan.count("T1")
    for exchange in operators:
        assert set(exchange) == {"agent", "demand", "prompt", "completion"}
        assert exchange["demand"].startswith("(T1) Transport the workpiece")


def test_agents_are_stateless_across_runs(registry, task_specs, returned_spec):
    def one_run():
        sim = PlantSim.standard_start(registry)
        srv = serve_plant(sim)
        try:
            reg = registry.rebased(srv.base_url)
            backend = OracleBackend(reg, task_specs)
            return run_task(returned_spec.instruction, backend, reg, srv.base_url), srv.base_url
        finally:
            srv.stop()

    first, base_a = one_run()
    second, base_b = one_run()
    assert first.outcome == second.outcome == "completed"

    # prompts are rebuilt from scratch each call, so apart from the service
    # host they are byte-identical between independent runs
    swap = lambda text: text.replace(base_b, base_a)
    assert len(first.exchanges) == len(second.exchanges)
    for left, right in zip(first.exchanges, second.exchanges):
        assert left["prompt"] == swap(right["prompt"])
        assert left["completion"] == swap(right["completion"])


def test_detail_travels_to_painting_skill(live, returned_spec):
    sim, srv, reg, backend = live
    trace = run_task(returned_spec.instruction, backend, reg, srv.base_url)

    assert trace.outcome == "completed"
    p2 = [r for r in trace.records if r.kind == "skill" and r.name == "P2"]
    assert len(p2) == 1
    assert p2[0].request["detail"] == "backside customer logo"

    wp = sim.sole_workpiece()
    pattern = [f for f in wp.features if f.kind == "paint_pattern"]
    assert pattern and pattern[0].detail == "backside customer logo"


# -- aborts: one non-ok record, at the tail -----------------------------------


def assert_single_failure(trace, prefix, kind="agent"):
    assert trace.outcome == "aborted"
    assert trace.abort_reason.startswith(prefix)
    failures = non_ok(trace)
    assert len(failures) == 1
    assert failures[0] is trace.records[-1]
    assert failures[0].kind == kind
    assert failures[0].reason == trace.abort_reason


def test_abort_plant_unreachable(registry, task_specs):
    backend = ScriptedBackend([])
    trace = run_task("produce anything", backend, registry.rebased("http://127.0.0.1:9"), "http://127.0.0.1:9")
    assert_single_failure(trace, "plant unreachable: ")
    assert trace.records[-1].name == "plant"
    assert trace.exchanges == []


@pytest.mark.parametrize("url", ["foo", "ftp://127.0.0.1:9", "http://127.0.0.1:99999", "http://:9", "http://plänt:9",
                                 "http://[x"])
def test_abort_plant_url_not_usable(registry, url):
    trace = run_task("produce anything", ScriptedBackend([]), registry, url)
    assert_single_failure(trace, f"plant unreachable: not an http:// plant URL: {url!r}")
    assert trace.abort_reason == f"plant unreachable: not an http:// plant URL: {url!r}"
    assert trace.exchanges == []


def test_abort_two_workpieces(registry, drilled_spec, task_specs):
    sim = PlantSim.standard_start(registry)
    extra = PlantSim.standard_start(registry, workpiece_id="wp2")
    sim.state.workpieces["wp2"] = extra.state.workpieces["wp2"]
    srv = serve_plant(sim)
    try:
        reg = registry.rebased(srv.base_url)
        trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
    finally:
        srv.stop()
    assert_single_failure(trace, "plant must hold exactly one workpiece, found 2")


def test_abort_workpiece_on_robot(registry, drilled_spec, task_specs):
    sim = PlantSim.standard_start(registry)
    sim.apply_functionality("move_dock", {"target_module": "storage_module"})
    sim.apply_functionality("load", {})
    srv = serve_plant(sim)
    try:
        reg = registry.rebased(srv.base_url)
        trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
    finally:
        srv.stop()
    assert_single_failure(trace, "workpiece is already on the transport robot")


@pytest.mark.parametrize("reply", [
    [],
    {"workpieces": [1]},
    {"workpieces": {"wp1": 5}},
    {"workpieces": {"wp1": {"location": None}}},
    {"workpieces": {"wp1": {"location": 5}}},
    {"workpieces": {"wp1": {"location": ["cnc_module"]}}},
    {"workpieces": {"wp1": {"location": "nowhere"}}},
])
def test_abort_plant_state_of_the_wrong_shape(registry, reply):
    """A state reply that is not an object, whose workpieces are not an
    object of objects, or that puts the workpiece at no catalog module,
    aborts the run with one plant record; nothing raises."""

    class StateHandler(JsonHandler):
        def do_GET(self):  # noqa: N802 (stdlib handler naming)
            self._reply(200, reply)

    with BackgroundServer(("127.0.0.1", 0), StateHandler) as srv:
        trace = run_task("produce anything", ScriptedBackend([]), registry.rebased(srv.base_url), srv.base_url)
    assert_single_failure(trace, "plant state")
    assert trace.records[-1].name == "plant"
    assert trace.exchanges == []


class StatePlant(LocalPlant):
    """An in-process plant whose `state()` gives each of `replies` in turn, then its snapshots."""

    def __init__(self, registry, replies):
        super().__init__(PlantSim.standard_start(registry))
        self.replies = list(replies)

    def state(self):
        return self.replies.pop(0) if self.replies else super().state()


@pytest.mark.parametrize("reply, reason", [
    ([], "plant state: snapshot: expected object, got list"),
    ({"workpieces": None}, "plant state: workpieces: expected object, got null"),
    ({"workpieces": {"wp1": 5}}, "plant state: workpieces.wp1: expected object, got number"),
    ({"workpieces": {"wp1": {}}}, "plant state: workpieces.wp1: missing required key 'location'"),
    ({"workpieces": {"wp1": {"location": "cnc_module"}, "wp2": {"location": 5}}},
     "plant state: workpieces.wp2.location: expected string, got number"),
    ({}, "plant must hold exactly one workpiece, found 0"),
])
def test_a_start_state_of_the_wrong_json_types_is_refused_with_its_json_path(registry, reply, reason):
    """The start state is read through the loaders' typed reader: the abort
    reason names the JSON path of the value of the wrong type, and the trace
    keeps the state whenever it is a JSON object."""
    trace = run_task("produce anything", ScriptedBackend([]), registry, StatePlant(registry, [reply]))
    assert_single_failure(trace, reason)
    assert trace.abort_reason == reason
    assert trace.start_state == (reply if isinstance(reply, dict) else None)


@pytest.mark.parametrize("reply, reason", [
    ([1], "snapshot: expected object, got list"),
    ("ok", "snapshot: expected object, got string"),
    ({"workpieces": {"wp1": {"location": None}}}, "workpieces.wp1.location: expected string, got null"),
])
def test_a_final_state_of_the_wrong_json_types_aborts_the_run(registry, task_specs, drilled_spec, reply, reason):
    """A final state that is no snapshot leaves the plan's ok records and
    one final plant record, not a completed trace."""
    plant = StatePlant(registry, [PlantSim.standard_start(registry).snapshot(), reply])
    trace = run_task(drilled_spec.instruction, OracleBackend(registry, task_specs), registry, plant)
    assert_single_failure(trace, f"plant state unavailable after completion: {reason}")
    assert trace.abort_reason == f"plant state unavailable after completion: {reason}"
    assert all(r.status == "ok" for r in trace.records[:-1]) and len(trace.records) > 1
    assert trace.final_state == (reply if isinstance(reply, dict) else None)


@pytest.mark.parametrize("status, reason", [(409, None), (409, ""), (409, 5), (503, None)])
def test_abort_on_a_reply_without_a_reason(registry, task_specs, drilled_spec, status, reason):
    """A plant that refuses a call without a usable reason still leaves one
    final non-ok record whose reason is the abort reason."""
    snapshot = PlantSim.standard_start(registry).snapshot()

    class RefusingHandler(JsonHandler):
        def do_GET(self):  # noqa: N802 (stdlib handler naming)
            self._reply(200, snapshot)

        def do_POST(self):  # noqa: N802
            self._read_body()
            self._reply(status, {"status": "fault", "reason": reason})

    with BackgroundServer(("127.0.0.1", 0), RefusingHandler) as srv:
        reg = registry.rebased(srv.base_url)
        trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
    expected = "precondition violated" if status == 409 else f"HTTP {status}"
    assert_single_failure(trace, expected, kind="skill")
    assert trace.abort_reason == expected


def test_abort_plant_state_unavailable_after_completion(registry, task_specs, drilled_spec):
    """A plant that cannot give its state once the plan has run leaves the
    plan's ok records and one final plant record, not a completed trace."""

    class ForgetfulPlant(LocalPlant):
        states = 0

        def state(self):
            self.states += 1
            if self.states > 1:
                raise OrchestrationError("connection error: timed out")
            return super().state()

    sim = PlantSim.standard_start(registry)
    trace = run_task(drilled_spec.instruction, OracleBackend(registry, task_specs), registry, ForgetfulPlant(sim))
    assert_single_failure(trace, "plant state unavailable after completion: connection error: timed out")
    assert trace.records[-1].name == "plant"
    ok = trace.records[:-1]
    assert ok and all(r.status == "ok" for r in ok)
    assert sim.state.version == len(ok)
    assert trace.start_state is not None and trace.final_state is None


def test_reworded_demand_template_runs_to_completion(task_specs, drilled_spec):
    """The oracle reads each demand back through the catalog's own demand
    template, so a catalog that rewords it still completes the task."""
    data = json.loads(resources.files("plantagents.data").joinpath("catalog.json").read_text("utf-8"))
    data["prompts"]["operator"]["demand_template"] = "(T1) Carry the workpiece from {start} over to {target}."
    registry = registry_from_dict(data)
    sim = PlantSim.standard_start(registry)
    trace = run_task(drilled_spec.instruction, OracleBackend(registry, task_specs), registry, LocalPlant(sim))
    assert trace.outcome == "completed", trace.abort_reason
    demands = [e["demand"] for e in trace.exchanges if e["agent"] == "operator"]
    assert demands[0] == "(T1) Carry the workpiece from storage over to inspection."
    assert len(demands) == 4


def test_abort_empty_task_prompt(live):
    sim, srv, reg, _ = live
    trace = run_task("", ScriptedBackend(["unused"]), reg, srv.base_url)
    assert_single_failure(trace, "prompt failed: ")
    assert trace.records[-1].name == "manager"


def test_abort_backend_error(live, drilled_spec):
    sim, srv, reg, _ = live
    trace = run_task(drilled_spec.instruction, ScriptedBackend([]), reg, srv.base_url)
    assert_single_failure(trace, "completion failed: script ran out of lines")


def test_abort_unparseable_completion(live, drilled_spec):
    sim, srv, reg, _ = live
    backend = ScriptedBackend(["I cannot help with that request."])
    trace = run_task(drilled_spec.instruction, backend, reg, srv.base_url)
    assert_single_failure(trace, "parse failed: ")
    assert trace.skill_plan is None
    # the failed exchange is still recorded
    assert trace.exchanges[-1]["completion"] == "I cannot help with that request."


def test_abort_grammar_violation(live, drilled_spec):
    sim, srv, reg, _ = live
    backend = ScriptedBackend(["{(S1) – (I1) – (S2)}"])
    trace = run_task(drilled_spec.instruction, backend, reg, srv.base_url)
    assert_single_failure(trace, "grammar violation: rule 3: ")
    assert trace.skill_plan == ["S1", "I1", "S2"]
    assert sim.state.version == 0  # nothing was dispatched


def test_abort_goal_feature_no_skill_provides(registry, drilled_spec, task_specs):
    """A task spec whose goal detail no catalog skill can carry aborts the
    run with one manager record before any call; nothing raises."""
    sim = PlantSim.standard_start(registry)
    spec = drilled_spec._replace(goal_features=(*drilled_spec.goal_features, Feature("anodized", "blue")))
    trace = run_task(spec.instruction, OracleBackend(registry, task_specs), registry, LocalPlant(sim), spec)
    assert_single_failure(trace, "task not achievable: no skill provides feature 'anodized'")
    assert trace.records[-1].name == "manager"
    assert sim.state.version == 0


def test_abort_skill_fault_recorded(registry, drilled_spec, task_specs):
    # workpiece parked at the inspection module: S1 must fault at dispatch
    sim = PlantSim.standard_start(registry, location="inspection_module")
    srv = serve_plant(sim)
    try:
        reg = registry.rebased(srv.base_url)
        trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
    finally:
        srv.stop()
    assert trace.outcome == "aborted"
    failures = non_ok(trace)
    assert len(failures) == 1
    assert failures[0].kind == "skill"
    assert failures[0].status == "fault"
    assert trace.abort_reason == failures[0].reason
    assert failures[0].name == "S1"
    assert failures[0].reason == "workpiece not at storage module"


def test_abort_operator_unparseable_mid_run(live, returned_spec):
    sim, srv, reg, _ = live
    backend = ScriptedBackend(["{(S1) – (T1) – (S2)}", "no steps in here"])
    trace = run_task(returned_spec.instruction, backend, reg, srv.base_url)
    assert_single_failure(trace, "operator output unparseable: ")
    assert trace.records[-1].name == "operator"
    skill_records = [r for r in trace.records if r.kind == "skill"]
    assert [r.name for r in skill_records] == ["S1"]
    assert [r.status for r in skill_records] == ["ok"]


def test_abort_operator_step_number_of_too_many_digits(registry, returned_spec, task_specs):
    """A step number `int` cannot convert aborts the run with one operator
    record, like any operator output the parser cannot read."""
    sim = PlantSim.standard_start(registry)
    huge = fill_transport_output(registry, "storage_module", "painting_module").replace(
        "(1) Move", "(%s) Move" % ("1" * 4301)
    )
    backend = ScriptedBackend(["{(S1) – (T1) – (P2) – (T1) – (I3) – (T1) – (S2)}", huge])
    trace = run_task(returned_spec.instruction, backend, registry, LocalPlant(sim))
    assert_single_failure(trace, "operator output unparseable: a step number has too many digits")
    assert trace.records[-1].name == "operator"
    assert [r.name for r in trace.records if r.kind == "skill"] == ["S1"]
    assert sim.state.version == 1


def test_abort_unregistered_endpoint_is_refused(live, returned_spec):
    sim, srv, reg, _ = live
    foreign = "http://10.0.0.1:5/robotino_7/functionality/move_dock"
    operator_text = (
        "To transport: \n"
        "(1) Move the transport robot to the storage module and dock it. "
        f'Call the functionality "move_dock" using the URL "{foreign}" to move.'
    )
    backend = ScriptedBackend(["{(S1) – (T1) – (S2)}", operator_text])
    trace = run_task(returned_spec.instruction, backend, reg, srv.base_url)

    assert trace.outcome == "aborted"
    assert trace.abort_reason == f"unregistered endpoint: {foreign}"
    failures = non_ok(trace)
    assert len(failures) == 1
    assert failures[0].kind == "functionality"
    assert failures[0].status == "error"
    assert failures[0].transport_index == 1
    # the plant never saw the call: only S1 bumped the version
    assert sim.state.version == 1


# -- operator expansion as a unit ---------------------------------------------


def test_perform_skill_via_operator_runs_transport(live):
    sim, srv, reg, backend = live
    demand = render_transport_demand(reg, "storage_module", "painting_module")
    with HttpPlant(srv.base_url) as plant:
        records = perform_skill_via_operator(reg, "robotino_7", demand, backend, plant)

    assert [r.name for r in records] == TRANSPORT_ACTIONS
    assert all(r.status == "ok" for r in records)
    assert sim.state.robot.position == "painting_module"
    assert sim.sole_workpiece().location == "painting_module"


def test_perform_skill_via_operator_stops_at_first_fault(live):
    sim, srv, reg, backend = live
    # loading at the cnc module finds no workpiece there
    demand = render_transport_demand(reg, "cnc_module", "laser_module")
    with HttpPlant(srv.base_url) as plant:
        records = perform_skill_via_operator(reg, "robotino_7", demand, backend, plant)
    statuses = [r.status for r in records]
    assert statuses == ["ok", "fault"]
    assert records[-1].reason == "load: no workpiece at cnc_module"


def test_perform_skill_via_operator_prompt_error(live):
    sim, srv, reg, backend = live
    with HttpPlant(srv.base_url) as plant, pytest.raises(OrchestrationError, match="operator prompt failed: "):
        perform_skill_via_operator(reg, "cnc_module", "(T1) move it", backend, plant)


def test_perform_skill_via_operator_completion_error(live):
    sim, srv, reg, _ = live
    demand = render_transport_demand(reg, "storage_module", "cnc_module")
    with HttpPlant(srv.base_url) as plant, pytest.raises(OrchestrationError, match="operator completion failed: "):
        perform_skill_via_operator(reg, "robotino_7", demand, ScriptedBackend([]), plant)


def test_perform_skill_via_operator_parse_error(live):
    sim, srv, reg, _ = live
    demand = render_transport_demand(reg, "storage_module", "cnc_module")
    with HttpPlant(srv.base_url) as plant, pytest.raises(OrchestrationError, match="operator output unparseable: "):
        perform_skill_via_operator(reg, "robotino_7", demand, ScriptedBackend(["nope"]), plant)
    assert sim.state.version == 0


# -- trace serialization -------------------------------------------------------


def test_trace_to_dict_and_save(live, drilled_spec, tmp_path):
    sim, srv, reg, backend = live
    trace = run_task(drilled_spec.instruction, backend, reg, srv.base_url)
    path = tmp_path / "trace.json"
    trace.save(path)

    loaded = json.loads(path.read_text("utf-8"))
    assert loaded == trace.to_dict()
    assert loaded["outcome"] == "completed"
    assert loaded["task_text"] == drilled_spec.instruction
    assert loaded["backend_id"] == "oracle"
    for entry in loaded["records"]:
        assert set(entry) == {
            "kind",
            "name",
            "endpoint",
            "request",
            "status",
            "reason",
            "state_version",
            "transport_index",
        }


def test_transport_expansions_grouping():
    def rec(kind, name, index=None):
        return TraceRecord(
            kind=kind, name=name, endpoint="", request={}, status="ok", transport_index=index
        )

    trace = ExecutionTrace(task_text="t", backend_id="b")
    trace.records = [
        rec("skill", "S1"),
        rec("functionality", "move_dock", 1),
        rec("functionality", "load", 1),
        rec("skill", "I1"),
        rec("functionality", "move_dock", 2),
    ]
    groups = trace.transport_expansions()
    assert [[r.name for r in g] for g in groups] == [["move_dock", "load"], ["move_dock"]]


# -- the plant port --------------------------------------------------------------


@pytest.mark.parametrize("spec_index", [0, 1, 2])
def test_in_process_trace_equals_http_trace(registry, task_specs, spec_index):
    spec = task_specs[spec_index]
    srv = serve_plant(PlantSim.standard_start(registry))
    try:
        reg = registry.rebased(srv.base_url)
        over_http = run_task(spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
    finally:
        srv.stop()
    sim = PlantSim.standard_start(registry)
    in_process = run_task(spec.instruction, OracleBackend(reg, task_specs), reg, LocalPlant(sim))

    assert in_process.outcome == "completed"
    assert in_process.to_dict() == over_http.to_dict()
    assert sim.state.version == len(in_process.records)


# SHA-256 of `json.dumps(trace.to_dict())` for an oracle run of each bundled
# task over `LocalPlant`, as the code wrote them when these were recorded: a
# change to a trace's bytes shows here.
TRACE_DIGESTS = {
    "drilled_sheet": "7a34343b38df8bd272ff8896594cc87bd542f2b29a0515f7ba9cf29c5bbb00d1",
    "lasered_nameplate": "7da94a33abcbe44ecab39d30398411ad23f8d2d522eb2575c35610976a0c757f",
    "returned_nameplate": "aa908e9903fa34830c2af4cb28a0505a4179d08d674ab0ca188bc8ee34ea534d",
}


@pytest.mark.parametrize("task_id", TRACE_DIGESTS)
def test_trace_bytes_are_pinned(registry, task_specs, task_id):
    spec = next(spec for spec in task_specs if spec.id == task_id)
    trace = run_task(spec.instruction, OracleBackend(registry, task_specs), registry,
                     LocalPlant(PlantSim.standard_start(registry)))
    assert hashlib.sha256(json.dumps(trace.to_dict()).encode()).hexdigest() == TRACE_DIGESTS[task_id]


class _RecordingSocket(socket.socket):
    """An accepted connection that records what it receives and sends."""

    def recv_into(self, buffer, *args):
        n = super().recv_into(buffer, *args)
        self.received.append(bytes(buffer[:n]))
        return n

    def sendall(self, data, *args):
        self.sent.append(bytes(data))
        return super().sendall(data, *args)


def _wire_transcript(registry, task_specs, spec) -> bytes:
    """Every request byte the service received and every reply byte it sent
    for an oracle run of `spec` over HTTP, with each reply's `Date`, the
    `Server` version and the port normalised."""
    received, sent = [], []

    class RecordingService(PlantService):
        def get_request(self):
            connection, address = super().get_request()
            recorded = _RecordingSocket(fileno=connection.detach())
            recorded.received, recorded.sent = received, sent
            return recorded, address

    sim = PlantSim.standard_start(registry, material=spec.material, location=spec.initial_location)
    with RecordingService(sim, port=0) as srv:
        reg = registry.rebased(srv.base_url)
        trace = run_task(spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url, task_spec=spec)
        port = srv.server_address[1]
    assert trace.outcome == "completed"
    transcript = b"".join(received) + b"\n-- replies --\n" + b"".join(sent)
    transcript = re.sub(rb"\r\nDate: [^\r\n]*\r\n", b"\r\nDate: -\r\n", transcript)
    transcript = transcript.replace(f"{JsonHandler.server_version} {JsonHandler.sys_version}".encode(), b"SERVER")
    return transcript.replace(b"127.0.0.1:%d" % port, b"127.0.0.1:PORT")


# SHA-256 of `_wire_transcript` for each bundled task, as the plant link
# wrote its requests and replies when these were recorded.
WIRE_DIGESTS = {
    "drilled_sheet": "db000c7706d5c7b760c5b15f8adeb914a087880c2905057027d292f5e2dc728e",
    "lasered_nameplate": "dfa22d9702cc5050b4947145d3104109c3eed8afd95484df5c8a845abe775d46",
    "returned_nameplate": "d1d5b5da17e90de3a01642677c7e80ff5a5f8b328ded1e2d656ce67a21e40ab1",
}


@pytest.mark.parametrize("task_id", WIRE_DIGESTS)
def test_wire_bytes_are_pinned(registry, task_specs, task_id):
    spec = next(spec for spec in task_specs if spec.id == task_id)
    transcript = _wire_transcript(registry, task_specs, spec)
    assert transcript.count(b"HTTP/1.1 200 OK\r\n") == transcript.count(b" HTTP/1.1\r\nHost: 127.0.0.1:PORT\r\n")
    assert hashlib.sha256(transcript).hexdigest() == WIRE_DIGESTS[task_id]


class FailingPlant:
    """A plant port that answers `status` instead of running call number k."""

    def __init__(self, sim, k, status):
        self.plant = LocalPlant(sim)
        self.k, self.status, self.calls = k, status, 0

    def state(self):
        return self.plant.state()

    def call(self, path, body):
        self.calls += 1
        if self.calls == self.k:
            return {"status": self.status, "reason": f"injected {self.status} at call {self.k}"}
        return self.plant.call(path, body)


@pytest.mark.parametrize("status", ["error", "fault"])
def test_failing_call_aborts_with_one_final_record(registry, task_specs, drilled_spec, status):
    clean = run_task(drilled_spec.instruction, OracleBackend(registry, task_specs), registry,
                     LocalPlant(PlantSim.standard_start(registry)))
    assert clean.outcome == "completed"
    for k in range(1, len(clean.records) + 1):
        sim = PlantSim.standard_start(registry)
        trace = run_task(drilled_spec.instruction, OracleBackend(registry, task_specs), registry,
                         FailingPlant(sim, k, status))
        assert trace.outcome == "aborted"
        assert len(trace.records) == k
        failures = non_ok(trace)
        assert failures == [trace.records[-1]]
        assert failures[0].status == status
        assert failures[0].reason == trace.abort_reason == f"injected {status} at call {k}"
        assert sim.state.version == k - 1 == len(trace.records) - 1
        assert trace.final_state is None


# -- the HTTP port's connection ---------------------------------------------------


class CountingPlantService(PlantService):
    """A plant service that counts the TCP connections it accepts and the
    ones it has closed, and keeps the thread that served each connection."""

    accepted = closed = 0

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)

    def finish_request(self, request, client_address):
        vars(self).setdefault("handlers", []).append(threading.current_thread())
        super().finish_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed += 1


def _wait_until(condition, message: str) -> None:
    deadline = time.monotonic() + 5
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.002)


def test_run_over_http_uses_one_connection_without_stalls(registry, task_specs, drilled_spec):
    """Every plant call of a run goes over one kept-alive connection, and no
    reply waits for a delayed ACK.  With Nagle's algorithm on in the
    handler, each of the 25 calls stalls about 40 ms and the run takes over
    a second."""
    with CountingPlantService(PlantSim.standard_start(registry), port=0) as srv:
        reg = registry.rebased(srv.base_url)
        started = time.perf_counter()
        trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
        elapsed = time.perf_counter() - started
    assert trace.outcome == "completed"
    assert len(trace.records) == 25
    assert srv.accepted == 1
    assert elapsed < 0.5


def test_both_ends_of_the_plant_link_turn_nagle_off(registry):
    """The client's socket and the handler's have TCP_NODELAY set, so no
    message waits for a delayed ACK."""
    class SocketKeepingService(PlantService):
        def finish_request(self, request, client_address):
            self.handler_socket = request
            super().finish_request(request, client_address)

    with SocketKeepingService(PlantSim.standard_start(registry), port=0) as srv, HttpPlant(srv.base_url) as plant:
        assert plant.state()["version"] == 0
        for sock in (plant._sock, srv.handler_socket):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_run_over_url_closes_its_connection_and_stop_is_prompt(registry, task_specs, drilled_spec):
    # Only threads this test starts are counted: a handler thread an earlier
    # test left stalling may end at any moment.
    threads_before = set(threading.enumerate())
    srv = CountingPlantService(PlantSim.standard_start(registry), port=0).start()
    reg = registry.rebased(srv.base_url)
    trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
    assert trace.outcome == "completed"
    # The run closed its connection, so the service reads its end and
    # closes it too, well before the handler's 10 s timeout.
    _wait_until(lambda: srv.closed == 1, "the run left its connection open")
    assert srv.accepted == 1
    started = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - started < 0.1
    assert set(threading.enumerate()) - threads_before == set()


def test_sequential_runs_over_url_share_one_handler_thread(registry, task_specs, drilled_spec):
    """A handler thread whose connection ended serves the next one: twenty
    runs, each on its own connection, start one thread between them."""
    with CountingPlantService(PlantSim.standard_start(registry), port=0) as srv:
        reg = registry.rebased(srv.base_url)
        for _ in range(20):
            srv.sim = PlantSim.standard_start(registry)
            trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
            assert trace.outcome == "completed"
            # The run's handler thread closes the connection, then idles.
            _wait_until(lambda: srv._idle, "no handler thread idles")
    assert srv.accepted == 20
    assert len(srv.handlers) == 20
    assert len(set(srv.handlers)) == 1


def test_an_idle_kept_alive_connection_does_not_delay_a_run(registry, task_specs, drilled_spec):
    """A connection left open after its reply holds its own handler thread,
    not the one a next run needs: the run is not kept waiting for the idle
    connection's 10 s timeout."""
    with CountingPlantService(PlantSim.standard_start(registry), port=0) as srv:
        reg = registry.rebased(srv.base_url)
        assert run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url).outcome == "completed"
        with socket.create_connection(srv.server_address[:2], timeout=5) as idle:
            idle.sendall(b"GET /plant/state HTTP/1.1\r\nHost: plant\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 200 ")
            srv.sim = PlantSim.standard_start(registry)
            started = time.perf_counter()
            trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
            assert trace.outcome == "completed"
            assert time.perf_counter() - started < 1
    assert srv.accepted == 3
    assert srv.handlers[2] is not srv.handlers[1]  # the idle connection's thread


def test_http_plant_reconnects_after_the_service_drops_an_idle_connection(registry, monkeypatch):
    """The service closes a connection left idle past its handler timeout;
    the next call sees that and connects afresh instead of failing."""
    monkeypatch.setattr(service, "PLANT_TIMEOUT_SECONDS", 0.2)
    sim = PlantSim.standard_start(registry)
    with PlantService(sim, port=0) as srv, HttpPlant(srv.base_url) as plant:
        for version in (1, 2, 3):
            result = plant.call("/storage_module/skills/S1", {"workpiece_id": "wp1"})
            assert result == {"status": "ok", "reason": None, "state_version": version}
            time.sleep(0.5)
        assert plant.state()["version"] == 3


@pytest.mark.parametrize("where", ["other port", "other host", "other scheme", "not rebased"])
def test_a_run_sends_nothing_to_a_plant_off_its_catalog(registry, task_specs, drilled_spec, where):
    """A plant URL on another scheme, host or port than the registry's base
    URL aborts the run with one plant record before anything is sent, also
    when the registry was never rebased off the catalog's own origin."""
    with PlantService(PlantSim.standard_start(registry), port=0) as srv:
        host, port = srv.server_address[:2]
        reg = registry.rebased({
            "other port": f"http://{host}:{port + 1 if port < 65535 else 1}",
            "other host": f"http://localhost:{port}",
            "other scheme": f"https://{host}:{port}",
            "not rebased": registry.base_url,
        }[where])
        trace = run_task(drilled_spec.instruction, OracleBackend(reg, task_specs), reg, srv.base_url)
        assert_single_failure(trace, "plant unreachable: ")
        assert trace.abort_reason == f"plant unreachable: {srv.base_url} is not on the catalog's base URL {reg.base_url}"
        assert trace.records[-1].name == "plant"
        assert trace.exchanges == [] and trace.start_state is None
        assert srv.sim.state.version == 0


def test_http_plant_reconnects_after_unasked_bytes_on_an_idle_connection(registry):
    """A byte the service sends after its reply, with no request pending,
    makes the idle connection unusable: the next call sees it, connects
    afresh and succeeds, and the stray byte is never read as a reply."""
    answered, sent = threading.Event(), threading.Event()

    class StrayByteHandler(JsonHandler):
        def do_GET(self):  # noqa: N802
            self._reply(200, PlantSim.standard_start(registry).snapshot())
            if not sent.is_set():
                answered.wait(5)
                self.request.sendall(b"x")
                sent.set()

    with BackgroundServer(("127.0.0.1", 0), StrayByteHandler) as srv, HttpPlant(srv.base_url) as plant:
        assert plant.state()["version"] == 0
        answered.set()
        assert sent.wait(5)
        select.select([plant._sock], [], [], 5)  # the stray byte has arrived
        assert plant.state()["version"] == 0


def test_http_plant_reconnects_after_unasked_bytes_in_the_reply_segment():
    """A byte the service writes together with its reply arrives in the
    reader's buffer, where no poll of the socket sees it: the connection is
    closed after that reply, and the next call connects afresh and succeeds
    instead of reading the byte as the start of its reply."""
    replies = [(_reply(SNAPSHOT) + b"x", False), (_reply(SNAPSHOT), False)]
    with RawPlant(replies) as stub, HttpPlant(stub.base_url) as plant:
        assert plant.state() == SNAPSHOT
        assert plant.state() == SNAPSHOT
    assert stub.connections == 2


# -- the HTTP port's framing ---------------------------------------------------------


class Trickle(bytes):
    """A reply `RawPlant` sends one byte per 50 ms."""


class RawPlant:
    """A plant stand-in on a raw socket.  It serves one connection at a
    time and answers each request, read with one `recv`, with the next
    canned reply; after a reply marked so it closes the connection."""

    def __init__(self, replies):
        self.replies = list(replies)  # (reply bytes, close after it)
        self.requests: list[bytes] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.base_url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # ends a wait in accept() on Linux
        except OSError:
            pass
        self._listener.close()
        self._thread.join(5)

    def _serve(self):
        while self.replies:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with connection:
                while self.replies:
                    try:
                        request = connection.recv(65536)
                        if not request:
                            break  # the client closed the connection
                        self.requests.append(request)
                        reply, close = self.replies.pop(0)
                        if isinstance(reply, Trickle):
                            for byte in reply:
                                connection.sendall(bytes([byte]))
                                if select.select([connection], [], [], 0.05)[0]:
                                    break  # the client hung up
                        else:
                            connection.sendall(reply)
                    except OSError:
                        break  # the client hung up on an unread reply
                    if close:
                        break


def _reply(payload, *headers):
    body = json.dumps(payload).encode()
    head = "".join(f"{h}\r\n" for h in (f"Content-Length: {len(body)}", *headers))
    return f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n{head}\r\n".encode() + body


OK_CALL = _reply({"status": "ok", "state_version": 7})
SNAPSHOT = {"version": 7, "workpieces": {}}

# Replies HttpPlant cannot frame, and whether the stand-in closes after each.
UNFRAMED_REPLIES = {
    "no-content-length": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}", False),
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", False),
    # Transfer-Encoding overrides Content-Length (RFC 9112 section 6.3).
    "chunked-with-length": (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}", False),
    "garbage-status-line": (b"HTPT/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", False),
    "short-body": (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}", True),
    "long-header-line": (b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70000 + b"\r\nContent-Length: 2\r\n\r\n{}", False),
    "two-lengths": (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}", False),
    "5000-digit-length": (b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n{}", False),
    "cut-off-head": (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n", True),
    "no-colon field line": (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nno colon here\r\n\r\n{}", False),
}


@pytest.mark.parametrize("reply, close", UNFRAMED_REPLIES.values(), ids=UNFRAMED_REPLIES)
def test_http_plant_refuses_a_reply_it_cannot_frame(reply, close):
    """The reply is an error result for `call()` and an OrchestrationError
    for `state()`; the connection is dropped, and the next call connects
    afresh and succeeds."""
    replies = [(reply, close), (OK_CALL, False), (reply, close), (_reply(SNAPSHOT), False)]
    with RawPlant(replies) as stub, HttpPlant(stub.base_url) as plant:
        path = "/storage_module/skills/S1"
        result = plant.call(path, {"workpiece_id": "wp1"})
        assert result["status"] == "error"
        assert result["reason"].startswith("connection error: ") and len(result["reason"]) > 18
        assert plant.call(path, {"workpiece_id": "wp1"}) == {"status": "ok", "reason": None, "state_version": 7}
        with pytest.raises(OrchestrationError, match="connection error: "):
            plant.state()
        assert plant.state() == SNAPSHOT
    assert stub.connections == 3


def _status_reply(status, body):
    return b"HTTP/1.1 %d Whatever\r\nContent-Length: %d\r\n\r\n%s" % (status, len(body), body)


@pytest.mark.parametrize("status, body, message", [
    (503, b'{"version": 7, "workpieces": {}}', "HTTP 503 from "),
    (200, b"<html>", "non-JSON response from "),
])
def test_http_plant_state_refuses_a_reply_that_is_no_snapshot(status, body, message):
    with RawPlant([(_status_reply(status, body), False)]) as stub, HttpPlant(stub.base_url) as plant:
        with pytest.raises(OrchestrationError, match=f"^{re.escape(message + stub.base_url)}/plant/state$"):
            plant.state()


def test_a_state_reply_nested_past_the_recursion_limit_aborts_the_run(registry):
    deep = b'{"workpieces": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    with RawPlant([(_status_reply(200, deep), False)]) as stub:
        trace = run_task("produce anything", ScriptedBackend([]), registry.rebased(stub.base_url), stub.base_url)
    reason = f"plant unreachable: non-JSON response from {stub.base_url}/plant/state"
    assert_single_failure(trace, reason)
    assert trace.abort_reason == reason


@pytest.mark.parametrize("body", [b"<html>", b"[1]"], ids=["not-json", "not-an-object"])
@pytest.mark.parametrize("status, result", [
    (200, {"status": "ok", "reason": None, "state_version": None}),
    (409, {"status": "fault", "reason": "precondition violated", "state_version": None}),
    (500, {"status": "error", "reason": "HTTP 500", "state_version": None}),
])
def test_http_plant_call_reads_a_body_that_is_no_json_object_as_empty(status, result, body):
    with RawPlant([(_status_reply(status, body), False)]) as stub, HttpPlant(stub.base_url) as plant:
        assert plant.call("/storage_module/skills/S1", {}) == result


@pytest.mark.parametrize("version, recorded", [(7, 7), ("x", None), (True, None), ([1], None), (7.0, None), (None, None)])
def test_http_plant_records_only_an_integer_state_version(version, recorded):
    """An ok reply's `state_version` reaches the result only as a JSON
    integer; any other value reads as null."""
    with RawPlant([(_reply({"status": "ok", "state_version": version}), False)]) as stub, \
            HttpPlant(stub.base_url) as plant:
        assert plant.call("/storage_module/skills/S1", {}) == {"status": "ok", "reason": None, "state_version": recorded}


def test_http_plant_gives_a_reply_one_deadline(monkeypatch):
    """A reply that trickles in a byte every 50 ms, each byte well inside
    the timeout, fails `state()` once `PLANT_TIMEOUT_SECONDS` have passed
    since the request went out (with a timeout on each read only, a
    116-byte reply held `state()` for 5.8 s)."""
    timeout = 0.2
    monkeypatch.setattr(service, "PLANT_TIMEOUT_SECONDS", timeout)
    with RawPlant([(_reply(SNAPSHOT), False), (Trickle(_reply(SNAPSHOT)), False)]) as stub, \
            HttpPlant(stub.base_url) as plant:
        assert plant.state() == SNAPSHOT
        started = time.monotonic()
        with pytest.raises(OrchestrationError, match="connection error: timed out"):
            plant.state()
        assert timeout <= time.monotonic() - started < 2 * timeout


def test_http_plant_reads_a_closing_reply_then_reconnects():
    replies = [(_reply(SNAPSHOT, "Connection: close"), False), (OK_CALL, False)]
    with RawPlant(replies) as stub, HttpPlant(stub.base_url) as plant:
        assert plant.state() == SNAPSHOT
        assert plant.call("/storage_module/skills/S1", {}) == {"status": "ok", "reason": None, "state_version": 7}
    assert stub.connections == 2


def test_http_plant_sends_each_request_in_one_segment():
    """Head and body leave in one write: the stand-in's single recv of each
    request holds all of it."""
    with RawPlant([(OK_CALL, False), (_reply(SNAPSHOT), False)]) as stub, HttpPlant(stub.base_url) as plant:
        body = {"params": {"target_module": "cnc_module"}}
        plant.call("/robotino_7/functionalities/move_dock", body)
        plant.state()
    post, get = stub.requests
    raw = json.dumps(body).encode()
    host = stub.base_url.removeprefix("http://")
    assert post == (
        f"POST /robotino_7/functionalities/move_dock HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(raw)}\r\n\r\n"
    ).encode() + raw
    assert get == f"GET /plant/state HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()


@pytest.mark.parametrize("form", ["http://{}", "HTTP://{}", "http://user:pw@{}", "http://{}/prefix?q=1#f"])
def test_http_plant_sends_each_path_under_the_origin_of_its_base_url(form):
    """The port's paths are catalog paths, which name the whole request
    path: a path, query or fragment on the base URL is in no request, and
    `Host` is the base URL's host and port without its user info."""
    with RawPlant([(_reply(SNAPSHOT), False)]) as stub:
        netloc = stub.base_url.removeprefix("http://")
        with HttpPlant(form.format(netloc)) as plant:
            assert plant.state() == SNAPSHOT
    assert stub.requests == [f"GET /plant/state HTTP/1.1\r\nHost: {netloc}\r\n\r\n".encode()]


@pytest.mark.parametrize("base_url", ["foo", "https://h:1", "ftp://h:1", "http://h:99999", "http://:9", "http://pl\u00e4nt:9",
                                      "http://[x"])
def test_http_plant_refuses_a_base_url_that_is_not_http(base_url):
    with pytest.raises(ValueError, match=f"^not an http:// plant URL: {re.escape(repr(base_url))}$"):
        HttpPlant(base_url)


@pytest.mark.parametrize("path", ["/storage module/skills/S1", "/storage_module/skills/S\u00e91", "/a\x7f/skills/S1"])
def test_http_plant_refuses_a_path_it_cannot_send(path):
    """A call path a request line cannot carry gets an error result, and
    nothing is sent."""
    with RawPlant([(OK_CALL, False)]) as stub, HttpPlant(stub.base_url) as plant:
        result = plant.call(path, {})
    assert result["status"] == "error"
    assert result["reason"].endswith("has a character a request path cannot carry")
    assert stub.connections == 0


# -- runs against a plant that lies ----------------------------------------------------


class RecordingPlant(LocalPlant):
    """An in-process plant that keeps the payload of each reply it gives,
    state snapshots included, in call order."""

    def __init__(self, sim):
        super().__init__(sim)
        self.payloads = []

    def state(self):
        self.payloads.append(super().state())
        return self.payloads[-1]

    def post(self, path, body):
        status, payload = super().post(path, body)
        self.payloads.append(payload)
        return status, payload


def _run_on_a_liar(registry, task_specs, spec, lie, k):
    """The trace of an oracle run over HTTP against a `RawPlant` that gives
    the replies of an honest plant (the start state, one per call, the final
    state), except that reply number `k` is `lie(payload)`: (reply bytes,
    close after it)."""
    stub = RawPlant([])
    reg = registry.rebased(stub.base_url)
    honest_plant = RecordingPlant(PlantSim.standard_start(reg))
    honest = run_task(spec.instruction, OracleBackend(reg, task_specs), reg, honest_plant)
    assert honest.outcome == "completed"
    stub.replies = [(_reply(payload), False) for payload in honest_plant.payloads]
    stub.replies[k] = lie(honest_plant.payloads[k])
    with stub:
        trace = run_task(spec.instruction, OracleBackend(reg, task_specs), reg, stub.base_url)
    # Both trace invariants: a completed run is the honest run; an aborted
    # one is the honest run up to one non-ok record, which comes last.
    if trace.outcome == "completed":
        assert trace.to_dict() == honest.to_dict()
    else:
        assert non_ok(trace) == [trace.records[-1]]
        assert trace.records[-1].reason == trace.abort_reason
        kept = [r.to_dict() for r in trace.records[:-1]]
        assert kept == [r.to_dict() for r in honest.records[:len(kept)]]
    return trace, stub


# The start state, the first skill call, a functionality call inside the
# first transport, and the final state.
LIE_AT = [0, 1, 3, 26]


@pytest.mark.parametrize("k", LIE_AT)
def test_a_reply_to_no_request_is_never_read(registry, task_specs, drilled_spec, k):
    """The plant sends a second copy of a reply with it, a reply to a request
    never made: the client drops the connection, and the run completes as
    on an honest plant."""
    trace, stub = _run_on_a_liar(registry, task_specs, drilled_spec, lambda p: (_reply(p) * 2, False), k)
    assert trace.outcome == "completed"
    assert stub.connections == (1 if k == LIE_AT[-1] else 2)  # after the last reply, no call is left


@pytest.mark.parametrize("k", LIE_AT[:3])
def test_a_reply_that_stalls_mid_body_aborts_the_run(registry, task_specs, drilled_spec, monkeypatch, k):
    """A reply that stops three bytes before its body ends, on a connection
    the plant keeps open, fails its call after `PLANT_TIMEOUT_SECONDS`."""
    monkeypatch.setattr(service, "PLANT_TIMEOUT_SECONDS", 0.1)
    trace, _ = _run_on_a_liar(registry, task_specs, drilled_spec, lambda p: (_reply(p)[:-3], False), k)
    assert trace.outcome == "aborted"
    assert trace.abort_reason.endswith("connection error: timed out")
    assert len(trace.records) == max(k, 1)


@pytest.mark.parametrize("k", LIE_AT[:3])
def test_a_reply_that_trickles_aborts_the_run(registry, task_specs, drilled_spec, monkeypatch, k):
    """A reply sent a byte every 50 ms fails its call once
    `PLANT_TIMEOUT_SECONDS` have passed since the request went out."""
    timeout = 0.2
    monkeypatch.setattr(service, "PLANT_TIMEOUT_SECONDS", timeout)
    started = time.monotonic()
    trace, _ = _run_on_a_liar(registry, task_specs, drilled_spec, lambda p: (Trickle(_reply(p)), False), k)
    assert time.monotonic() - started < 2 * timeout
    assert trace.outcome == "aborted"
    assert trace.abort_reason.endswith("connection error: timed out")
    assert len(trace.records) == max(k, 1)


@pytest.mark.parametrize("k", LIE_AT)
def test_bytes_after_a_closing_reply_are_never_read(registry, task_specs, drilled_spec, k):
    """A reply with `Connection: close` is read in full and the connection
    closed, whatever follows it; the run completes as on an honest plant."""
    trace, stub = _run_on_a_liar(registry, task_specs, drilled_spec,
                                 lambda p: (_reply(p, "Connection: close") + b"HTTP/1.1 200 OK\r\n", True), k)
    assert trace.outcome == "completed"
    assert stub.connections == (1 if k == LIE_AT[-1] else 2)
