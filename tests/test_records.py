"""Behaviour callers rely on in the package's record types: equality and
hashing, the checks every construction runs, which records refuse writes,
and the key order each record's JSON object is written in."""

import json
from pathlib import Path
from urllib.parse import urlsplit, urlunsplit

import pytest

from plantagents import catalog
from plantagents.backends import CompletionRequest, CompletionResult
from plantagents.catalog import Module, PromptExample, Skill, TransportExample, bundled_catalog, registry_from_dict
from plantagents.evaluation import EvalMetrics, EvalSample
from plantagents.orchestrator import ExecutionTrace, TraceRecord
from plantagents.parsing import FunctionStep, SkillPlan
from plantagents.plant import Feature, PlantSim
from plantagents.prompts import build_manager_prompt, build_operator_prompt, render_transport_demand
from plantagents.tasks import TaskError, TaskSpec
from plantagents.validation import GrammarViolation, ValidationReport, validate_plan

SPEC = {"instruction": "Produce a drilled sheet.", "initial_location": "storage_module", "material": "steel"}


def test_equal_task_specs_are_one_dict_key(drilled_spec):
    twin = TaskSpec.from_dict(drilled_spec.to_dict())
    assert twin is not drilled_spec
    assert twin == drilled_spec and hash(twin) == hash(drilled_spec)
    lengths = {drilled_spec: 7}
    assert lengths[twin] == 7
    other = TaskSpec.from_dict({**drilled_spec.to_dict(), "id": "other"})
    assert other != drilled_spec and other not in lengths


def test_features_compare_by_kind_and_detail():
    assert Feature("painted", "red") == Feature(kind="painted", detail="red")
    assert Feature("painted", "red") != Feature("painted", "blue")
    assert Feature("drilled") == Feature("drilled", None)
    assert len({Feature("drilled"), Feature("drilled", None)}) == 1


_CONSTRUCTION_CASES = [
    ({"initial_location": ""}, "task initial_location must name a module, got ''"),
    ({"instruction": " "}, "task instruction must not be empty"),
    ({"material": "gold"}, "unknown material 'gold'"),
    ({"goal_features": (Feature("quality_tested"),)}, "quality_tested is a check, not a goal feature"),
    ({"required_checks": (Feature("drilled"),)}, "drilled is not a check feature"),
]


# JSON types are the loader's to check (tests/test_tasks.py), so each case here breaks a rule of meaning.
# The ids are the cases' long-standing test names.
@pytest.mark.parametrize("change, message", _CONSTRUCTION_CASES,
                         ids=[f"change{i}-{m}" for i, (_, m) in zip((1, 3, 4, 5, 6), _CONSTRUCTION_CASES)])
def test_task_spec_construction_checks(change, message):
    assert TaskSpec(**SPEC).material == "steel"
    with pytest.raises(TaskError) as built:
        TaskSpec(**{**SPEC, **change})
    with pytest.raises(TaskError) as replaced:
        TaskSpec(**SPEC)._replace(**change)
    assert str(built.value) == str(replaced.value) == message


@pytest.mark.parametrize("make, error, message", [
    (lambda: CompletionRequest(""), ValueError, "prompt must not be empty"),
    (lambda: CompletionRequest("p", temperature=1.5), ValueError, "temperature out of range: 1.5"),
    (lambda: CompletionRequest("p")._replace(temperature=-0.5), ValueError, "temperature out of range: -0.5"),
    (lambda: EvalMetrics(4, 1.25, 0.5, 0.5), ValueError, "fractions out of range: (0.5, 0.5, 1.25)"),
    (lambda: EvalMetrics(4, 0.5, 0.75, 0.5), ValueError,
     "fractions must nest (minimal <= correct <= executable): (0.5, 0.75, 0.5)"),
    (lambda: EvalMetrics(4, 1.0, 1.0, 1.0)._replace(minimal_fraction=-1.0), ValueError,
     "fractions out of range: (-1.0, 1.0, 1.0)"),
])
def test_checked_record_construction(make, error, message):
    with pytest.raises(error) as refused:
        make()
    assert str(refused.value) == message


def _frozen_records():
    registry = bundled_catalog()
    module = registry.transport_module()
    yield module, "name"
    yield module.skills[0], "endpoint"
    yield module.components[0], "id"
    yield module.components[0].functionalities[0], "url"
    yield registry.prompts, "manager_rules"
    yield PromptExample("i", "o"), "output"
    yield TransportExample("i", "a", "b"), "target_module"
    yield Feature("drilled"), "detail"
    yield GrammarViolation(3, "m"), "rule"
    yield TaskSpec(**SPEC), "material"
    yield EvalSample(TaskSpec(**SPEC), "{S1}"), "completion_text"
    yield EvalMetrics(1, 1.0, 1.0, 1.0), "samples"
    yield SkillPlan(("S1",)), "steps"
    yield FunctionStep(1, "d", "load", "http://x/y"), "url"
    yield CompletionRequest("p"), "temperature"
    yield CompletionResult("t", "oracle", 0.0), "text"


@pytest.mark.parametrize("record, field", [pytest.param(*case, id=type(case[0]).__name__) for case in _frozen_records()])
def test_frozen_records_refuse_writes(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_module_info_defaults_are_not_shared():
    def module():
        return Module("m", "M", "storage", "A storage module", "skills", None, (Skill("S1", "s", "http://h/p"),))

    first, second = module(), module()
    try:
        first.info["written"] = True
    except TypeError:
        pass  # a read-only default is not shared either
    assert "written" not in second.info and "written" not in module().info


def _raw_catalog():
    return json.loads((Path(catalog.__file__).parent / "data" / "catalog.json").read_text("utf-8"))


@pytest.mark.parametrize("base_url", [
    "http://127.0.0.1:8765", "http://[::1]:8080", "HTTP://Example.COM", "http://h:1/ignored/path",
])
def test_rebased_equals_a_fresh_load_at_that_base(registry, base_url):
    base = urlsplit(base_url)

    def moved(url):
        return urlunsplit((base.scheme, base.netloc, urlsplit(url).path, "", ""))

    data = _raw_catalog()
    for raw in data["modules"]:
        for skill in raw["skills"]:
            skill["endpoint"] = moved(skill["endpoint"])
        for comp in raw.get("components", []):
            for fn in comp.get("functionalities", []):
                fn["url"] = moved(fn["url"])
    fresh, rebased = registry_from_dict(data), registry.rebased(base_url)
    assert rebased.base_url == fresh.base_url
    assert len(rebased.modules) == len(fresh.modules)
    for got, want in zip(rebased.modules, fresh.modules):
        assert got == want
    assert rebased.prompts == fresh.prompts
    assert rebased.known_endpoints() == fresh.known_endpoints()
    assert rebased.output_urls() == fresh.output_urls()
    task, demand = "Drill the sheet.", render_transport_demand(registry, "storage_module", "cnc_module")
    assert build_manager_prompt(rebased, task) == build_manager_prompt(fresh, task)
    assert build_operator_prompt(rebased, "robotino_7", demand) == build_operator_prompt(fresh, "robotino_7", demand)


def test_trace_record_keys_keep_their_order():
    record = TraceRecord("skill", "S1", "http://h/storage_module/skills/S1", {"workpiece_id": "wp1"}, "ok",
                         state_version=1, transport_index=None)
    assert list(record.to_dict()) == [
        "kind", "name", "endpoint", "request", "status", "reason", "state_version", "transport_index",
    ]
    assert json.dumps(record.to_dict()) == (
        '{"kind": "skill", "name": "S1", "endpoint": "http://h/storage_module/skills/S1", '
        '"request": {"workpiece_id": "wp1"}, "status": "ok", "reason": null, "state_version": 1, '
        '"transport_index": null}'
    )
    record.transport_index = 2
    assert record.to_dict()["transport_index"] == 2


def test_execution_trace_keys_keep_their_order():
    trace = ExecutionTrace("Drill the sheet.", "oracle")
    trace.records.append(TraceRecord("agent", "plant", "", {}, "error", "plant unreachable: refused"))
    assert list(trace.to_dict()) == [
        "task_text", "backend_id", "outcome", "abort_reason", "skill_plan", "records", "exchanges",
        "start_state", "final_state",
    ]
    assert trace.to_dict()["records"] == [trace.records[0].to_dict()]


def test_validation_report_keys_keep_their_order(registry, drilled_spec):
    assert list(ValidationReport().to_dict()) == [
        "parsed", "parse_error", "plan", "grammar_ok", "violations", "nonstandard_skills", "executable", "fault",
        "satisfies_task", "missing", "minimal", "plan_length", "oracle_length", "start_state",
    ]
    report = validate_plan(registry, ["S1", "M1", "S2"], drilled_spec)
    assert [list(v) for v in report.to_dict()["violations"]] == [["rule", "message"]] * 2


def test_plant_snapshot_keys_keep_their_order(registry):
    sim = PlantSim.standard_start(registry, location="painting_module", in_inventory=False)
    sim.apply_skill("P2", "wp1", detail="backside customer logo")
    assert json.dumps(sim.snapshot()) == (
        '{"version": 1, "robot": {"position": "storage_module", "docked": false, "carrying": null}, '
        '"workpieces": {"wp1": {"id": "wp1", "material": "steel", '
        '"features": [{"kind": "paint_pattern", "detail": "backside customer logo"}], '
        '"location": "painting_module", "in_inventory": false}}}'
    )
