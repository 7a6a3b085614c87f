"""End-to-end runs against a live service, plus the abort paths.

The invariant under test throughout: a trace is either all-ok and
"completed", or "aborted" with exactly one non-ok record at the tail.
"""

import json

import pytest
import requests

from plantagents import (
    ExecutionTrace,
    HttpPlant,
    LocalPlant,
    OracleBackend,
    OrchestrationError,
    PlantSim,
    TraceRecord,
    perform_skill_via_operator,
    run_task,
    serve_plant,
)
from plantagents.backends import BackendError, CompletionBackend, CompletionResult
from plantagents.prompts import render_transport_demand
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
    ok, missing = check_satisfaction(sim, spec, registry)
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
    trace = run_task("produce anything", backend, registry, "http://127.0.0.1:9")
    assert_single_failure(trace, "plant unreachable: ")
    assert trace.records[-1].name == "plant"
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
    pairs = perform_skill_via_operator(reg, "robotino_7", demand, backend, HttpPlant(srv.base_url))

    assert [step.action for step, _ in pairs] == TRANSPORT_ACTIONS
    assert all(resp["status"] == "ok" for _, resp in pairs)
    assert sim.state.robot.position == "painting_module"
    assert sim.sole_workpiece().location == "painting_module"


def test_perform_skill_via_operator_stops_at_first_fault(live):
    sim, srv, reg, backend = live
    # loading at the cnc module finds no workpiece there
    demand = render_transport_demand(reg, "cnc_module", "laser_module")
    pairs = perform_skill_via_operator(reg, "robotino_7", demand, backend, HttpPlant(srv.base_url))
    statuses = [resp["status"] for _, resp in pairs]
    assert statuses == ["ok", "fault"]
    assert pairs[-1][1]["reason"] == "load: no workpiece at cnc_module"


def test_perform_skill_via_operator_prompt_error(live):
    sim, srv, reg, backend = live
    with pytest.raises(OrchestrationError, match="operator prompt failed: "):
        perform_skill_via_operator(reg, "cnc_module", "(T1) move it", backend, HttpPlant(srv.base_url))


def test_perform_skill_via_operator_completion_error(live):
    sim, srv, reg, _ = live
    demand = render_transport_demand(reg, "storage_module", "cnc_module")
    with pytest.raises(OrchestrationError, match="operator completion failed: "):
        perform_skill_via_operator(reg, "robotino_7", demand, ScriptedBackend([]), HttpPlant(srv.base_url))


def test_perform_skill_via_operator_parse_error(live):
    sim, srv, reg, _ = live
    demand = render_transport_demand(reg, "storage_module", "cnc_module")
    with pytest.raises(OrchestrationError, match="operator output unparseable: "):
        perform_skill_via_operator(reg, "robotino_7", demand, ScriptedBackend(["nope"]), HttpPlant(srv.base_url))
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


class FailingPlant:
    """A plant port that answers `status` instead of running call number k."""

    def __init__(self, sim, k, status):
        self.plant = LocalPlant(sim)
        self.k, self.status, self.calls = k, status, 0

    def state(self):
        return self.plant.state()

    def call(self, url, body):
        self.calls += 1
        if self.calls == self.k:
            return {"status": self.status, "reason": f"injected {self.status} at call {self.k}"}
        return self.plant.call(url, body)


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
