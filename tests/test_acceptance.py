"""Acceptance gate: nine criteria, one test each, pinned tolerances.

Each test is the binding check for one release criterion.  Timing limits
are asserted directly; golden texts are frozen here on purpose, duplicated
from the unit suites so this module stands alone.
"""

import itertools
import json
import random
import time

import pytest

from plantagents import (
    OracleBackend,
    PlantSim,
    RemoteBackend,
    bundled_corpus_path,
    bundled_task_spec,
    bundled_task_specs,
    build_manager_prompt,
    evaluate_corpus,
    load_corpus,
    oracle_plan_skills,
    parse_function_steps,
    random_task_spec,
    run_task,
    serve_plant,
    steps_to_json,
    validate_plan,
)
from plantagents.backends import BackendError, CompletionRequest
from plantagents.cli import main
from plantagents.evaluation import EvalSample
from permutations import permutation_survey
from stubserver import StubCompletionsServer
from plantagents.validation import validate_grammar

BASE = "http://129.69.102.129:5010/robotino_7/functionality"

TRANSPORT_OUTPUT = (
    "To transport the workpiece from the storage module to the painting module,"
    " the following steps shall be executed:\n"
    '(1) Move the transport robot to the storage module and dock it. Call the functionality "move_dock"'
    f' using the URL "{BASE}/move_dock" to move the robot to the storage module and dock it.\n'
    '(2) Load the workpiece from the storage module onto the transport robot. Call the functionality "load"'
    f' using the URL "{BASE}/load" to load the workpiece onto the robot.\n'
    '(3) Undock the transport robot from the storage module. Call the functionality "undock"'
    f' using the URL "{BASE}/undock" to detach the robot from the storage module.\n'
    '(4) Move the transport robot to the painting module and dock it. Call the functionality "move_dock"'
    f' using the URL "{BASE}/move_dock" to move the robot to the painting module and dock it.\n'
    '(5) Unload the workpiece from the transport robot onto the painting module. Call the functionality "unload"'
    f' using the URL "{BASE}/unload" to unload the workpiece from the robot onto the painting module.'
)

TRANSPORT_STEPS_JSON = (
    '[{"step": 1, "description": "Move the transport robot to the storage module and dock it",'
    f' "action": "move_dock", "url": "{BASE}/move_dock"}},'
    ' {"step": 2, "description": "Load the workpiece from the storage module onto the transport robot",'
    f' "action": "load", "url": "{BASE}/load"}},'
    ' {"step": 3, "description": "Undock the transport robot from the storage module",'
    f' "action": "undock", "url": "{BASE}/undock"}},'
    ' {"step": 4, "description": "Move the transport robot to the painting module and dock it",'
    f' "action": "move_dock", "url": "{BASE}/move_dock"}},'
    ' {"step": 5, "description": "Unload the workpiece from the transport robot onto the painting module",'
    f' "action": "unload", "url": "{BASE}/unload"}}]'
)

DRILLED_PLAN = ["S1", "T1", "I1", "T1", "M1", "T1", "I3", "T1", "S2"]
LASERED_PLAN = ["S1", "T1", "I1", "T1", "M2", "T1", "L1", "T1", "I3", "T1", "S2"]
RETURNED_PLAN = ["S1", "T1", "P2", "T1", "I3", "T1", "S2"]


def test_criterion_1_parser_fidelity():
    steps = parse_function_steps(TRANSPORT_OUTPUT)  # warm-up, also correctness
    assert steps_to_json(steps) == TRANSPORT_STEPS_JSON

    timings = []
    for _ in range(5):
        started = time.perf_counter()
        parse_function_steps(TRANSPORT_OUTPUT)
        timings.append(time.perf_counter() - started)
    assert min(timings) < 0.010


def test_criterion_2_grammar_golden_set(registry):
    def expected_rules(plan):
        rules = set()
        storage_codes = {"S1", "S2"}
        if plan[0] not in storage_codes:
            rules.add(6)
        if plan[-1] not in storage_codes:
            rules.add(6)
        transported = True
        prev_host = None
        for code in plan:
            host = registry.skill_entry(code)[0]
            if host.kind == "transport":
                transported = True
                continue
            if prev_host is not None and host.id != prev_host and not transported:
                rules.add(3)
            prev_host = host.id
            transported = False
        return rules

    started = time.perf_counter()
    for plan in (DRILLED_PLAN, LASERED_PLAN, RETURNED_PLAN):
        assert validate_grammar(plan, registry) == []
        for cut in range(len(plan)):
            mutant = plan[:cut] + plan[cut + 1:]
            named = {v.rule for v in validate_grammar(mutant, registry)}
            assert named == expected_rules(mutant), (plan, cut, mutant)
    assert time.perf_counter() - started < 1.0


def test_criterion_3_oracle_reproduction(registry):
    started = time.perf_counter()
    assert oracle_plan_skills(registry, bundled_task_spec("returned_nameplate")) == RETURNED_PLAN
    assert oracle_plan_skills(registry, bundled_task_spec("drilled_sheet")) == DRILLED_PLAN
    assert time.perf_counter() - started < 1.0


def test_criterion_4_end_to_end_run_task(tmp_path):
    spec = bundled_task_spec("returned_nameplate")
    trace_path = tmp_path / "trace.json"
    started = time.perf_counter()
    rc = main([
        "run-task",
        "--backend",
        "oracle",
        "--task",
        spec.instruction,
        "--trace-out",
        str(trace_path),
    ])
    elapsed = time.perf_counter() - started
    assert rc == 0
    assert elapsed < 5.0

    trace = json.loads(trace_path.read_text("utf-8"))
    assert trace["outcome"] == "completed"

    wp = next(iter(trace["final_state"]["workpieces"].values()))
    assert wp["location"] == "storage_module"
    assert wp["in_inventory"] is True
    kinds = {f["kind"] for f in wp["features"]}
    assert {"paint_pattern", "quality_tested"} <= kinds

    groups = {}
    for record in trace["records"]:
        if record["kind"] == "functionality" and record["transport_index"] is not None:
            groups.setdefault(record["transport_index"], []).append(record["name"])
    expansions = [groups[i] for i in sorted(groups)]
    assert len(expansions) == 3
    for actions in expansions:
        assert actions[0] == "move_dock"
        assert actions[-1] == "unload"


def test_criterion_5_executability_physics(registry):
    started = time.perf_counter()
    survivors = permutation_survey(registry, "storage_module", "painting_module")
    assert time.perf_counter() - started < 1.0
    calls = len(registry.transport_calls("storage_module", "painting_module"))
    identity = list(itertools.permutations(range(calls))).index(tuple(range(calls)))
    assert survivors == [identity] == [0]


def test_criterion_6_metrics_arithmetic(registry, task_specs):
    metrics = evaluate_corpus(registry, load_corpus(bundled_corpus_path()))
    assert metrics.samples == 50
    assert metrics.executable_fraction == 0.96
    assert metrics.correct_fraction == 0.88
    assert metrics.minimal_fraction == 0.06

    backend = OracleBackend(registry, task_specs)
    samples = []
    for spec in itertools.islice(itertools.cycle(task_specs), 10):
        prompt = build_manager_prompt(registry, spec.instruction)
        result = backend.complete(CompletionRequest(prompt=prompt))
        samples.append(EvalSample(spec=spec, completion_text=result.text))
    ten = evaluate_corpus(registry, samples)
    assert ten.samples == 10
    assert ten.executable_fraction == 1.0
    assert ten.correct_fraction == 1.0
    assert ten.minimal_fraction == 1.0


def test_criterion_7_prompt_contract(registry, task_specs):
    cues = ["Role and goal: ", "Context:\n", "Instructions: ", "Examples:\n", "Input: {"]
    for spec in task_specs:
        prompt = build_manager_prompt(registry, spec.instruction)
        assert prompt.endswith("Output:")
        positions = [prompt.find(cue) for cue in cues]
        assert positions[0] == 0
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)
        assert prompt == build_manager_prompt(registry, spec.instruction)


def test_criterion_8_closure_property_suite(registry):
    rng = random.Random(20230817)
    started = time.perf_counter()
    passed = 0
    for index in range(100):
        spec = random_task_spec(registry, rng, index=index)
        backend = OracleBackend(registry, [spec])
        prompt = build_manager_prompt(registry, spec.instruction)
        text = backend.complete(CompletionRequest(prompt=prompt)).text
        report = validate_plan(registry, text, spec)
        if (
            report.parsed
            and report.grammar_ok
            and report.executable
            and report.satisfies_task
            and report.minimal
        ):
            passed += 1
    assert passed == 100
    assert time.perf_counter() - started < 30.0


def test_criterion_9_remote_backend_conformance(registry, task_specs):
    canned = "{(S1) – (T1) – (P2) – (T1) – (I3) – (T1) – (S2)} Explanation: as built."
    with StubCompletionsServer(completion_text=canned) as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="stub-model")
        result = backend.complete(CompletionRequest(prompt="anything"))
        assert result.text == canned

    with StubCompletionsServer(mode="error", error_status=500) as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="stub-model")
        with pytest.raises(BackendError, match="completion endpoint returned 500"):
            backend.complete(CompletionRequest(prompt="anything"))

    with StubCompletionsServer(mode="stall", stall_seconds=5.0) as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="stub-model", timeout_seconds=0.3)
        with pytest.raises(BackendError, match="completion request timed out after 0.3s"):
            backend.complete(CompletionRequest(prompt="anything"))

    # a stalled model aborts the run; it must not crash it
    sim = PlantSim.standard_start(registry)
    srv = serve_plant(sim)
    try:
        with StubCompletionsServer(mode="stall", stall_seconds=5.0) as stub:
            backend = RemoteBackend(endpoint_url=stub.url, model="stub-model", timeout_seconds=0.3)
            reg = registry.rebased(srv.base_url)
            trace = run_task(task_specs[2].instruction, backend, reg, srv.base_url)
    finally:
        srv.stop()
    assert trace.outcome == "aborted"
    assert trace.abort_reason.startswith("completion failed: completion request timed out")
    assert sum(1 for r in trace.records if r.status != "ok") == 1
