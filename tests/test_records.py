"""Behaviour callers rely on in the package's record types: equality and
hashing, the checks every construction runs, which records refuse writes,
and the key order a trace record is written in."""

import json
from pathlib import Path
from urllib.parse import urlsplit, urlunsplit

import pytest

from plantagents import catalog
from plantagents.backends import CompletionRequest, CompletionResult
from plantagents.catalog import Module, PromptExample, Skill, TransportExample, bundled_catalog, registry_from_dict
from plantagents.evaluation import EvalMetrics, EvalSample
from plantagents.orchestrator import TraceRecord
from plantagents.parsing import FunctionStep, SkillPlan
from plantagents.plant import Feature
from plantagents.prompts import PromptError, PromptSpec
from plantagents.tasks import TaskError, TaskSpec
from plantagents.validation import GrammarViolation

SPEC = {"instruction": "Produce a drilled sheet.", "initial_location": "storage_module", "material": "steel"}
PROMPT = {"role_goal": "r", "context": "c", "instructions": "i", "examples": (("a", "b"),), "input": "x"}


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


@pytest.mark.parametrize("change, message", [
    ({"id": 5}, "task id must be a string, got int"),
    ({"initial_location": ""}, "task initial_location must name a module, got ''"),
    ({"goal_features": (Feature(5),)}, "a feature needs a string kind and a string or null detail: "
                                       "{'kind': 5, 'detail': None}"),
    ({"instruction": " "}, "task instruction must not be empty"),
    ({"material": "gold"}, "unknown material 'gold'"),
    ({"goal_features": (Feature("quality_tested"),)}, "quality_tested is a check, not a goal feature"),
    ({"required_checks": (Feature("drilled"),)}, "drilled is not a check feature"),
])
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
    (lambda: PromptSpec(**{**PROMPT, "role_goal": " "}), PromptError, "prompt section role_goal must not be empty"),
    (lambda: PromptSpec(**{**PROMPT, "input": ""}), PromptError, "prompt section input must not be empty"),
    (lambda: PromptSpec(**{**PROMPT, "examples": ()}), PromptError, "a prompt needs at least one worked example"),
    (lambda: PromptSpec(**PROMPT)._replace(context="\n"), PromptError, "prompt section context must not be empty"),
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
    yield PromptSpec(**PROMPT), "input"


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


def test_rebased_equals_a_fresh_load_at_that_base(registry):
    base = urlsplit("http://127.0.0.1:8765")

    def moved(url):
        return urlunsplit((base.scheme, base.netloc, urlsplit(url).path, "", ""))

    data = _raw_catalog()
    for raw in data["modules"]:
        for skill in raw["skills"]:
            skill["endpoint"] = moved(skill["endpoint"])
        for comp in raw.get("components", []):
            for fn in comp.get("functionalities", []):
                fn["url"] = moved(fn["url"])
    fresh, rebased = registry_from_dict(data), registry.rebased("http://127.0.0.1:8765")
    assert len(rebased.modules) == len(fresh.modules)
    for got, want in zip(rebased.modules, fresh.modules):
        assert got == want
    assert rebased.prompts == fresh.prompts
    assert rebased.known_endpoints() == fresh.known_endpoints()


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
