import random

import pytest

from plantagents.plant import Feature
from plantagents.planner import oracle_plan_skills
from plantagents.tasks import (
    TaskError,
    TaskSpec,
    bundled_task_spec,
    bundled_task_specs,
    find_task_spec,
    load_task_specs,
    random_task_spec,
)


def test_bundled_tasks(task_specs):
    assert [s.id for s in task_specs] == [
        "drilled_sheet",
        "lasered_nameplate",
        "returned_nameplate",
    ]
    for spec in task_specs:
        assert spec.initial_location == "storage_module"


def test_drilled_sheet_contents(drilled_spec):
    assert drilled_spec.material == "steel"
    assert [f.kind for f in drilled_spec.goal_features] == ["drilled"]
    assert [f.kind for f in drilled_spec.required_checks] == ["raw_checked", "quality_tested"]
    assert [f.kind for f in drilled_spec.pre_checks()] == ["raw_checked"]
    assert [f.kind for f in drilled_spec.post_checks()] == ["quality_tested"]


def test_returned_nameplate_detail(returned_spec):
    assert returned_spec.material == "wood"
    (goal,) = returned_spec.goal_features
    assert goal.kind == "paint_pattern"
    assert goal.detail == "backside customer logo"
    assert [f.kind for f in returned_spec.required_checks] == ["quality_tested"]


def test_spec_rejects_empty_instruction():
    with pytest.raises(TaskError, match="instruction"):
        TaskSpec(instruction="  ", initial_location="storage_module", material="steel")


def test_spec_rejects_unknown_material():
    with pytest.raises(TaskError, match="unknown material"):
        TaskSpec(instruction="x", initial_location="storage_module", material="clay")


def test_spec_rejects_check_as_goal():
    with pytest.raises(TaskError, match="is a check, not a goal"):
        TaskSpec(
            instruction="x",
            initial_location="storage_module",
            material="steel",
            goal_features=(Feature(kind="quality_tested"),),
        )


def test_spec_rejects_goal_as_check():
    with pytest.raises(TaskError, match="is not a check"):
        TaskSpec(
            instruction="x",
            initial_location="storage_module",
            material="steel",
            required_checks=(Feature(kind="drilled"),),
        )


def test_serialization_roundtrip(task_specs):
    for spec in task_specs:
        assert TaskSpec.from_dict(spec.to_dict()) == spec


def test_from_dict_missing_key():
    with pytest.raises(TaskError, match="^task: missing required key 'material'$"):
        TaskSpec.from_dict({"instruction": "x"})


def test_load_task_specs_file(tmp_path, drilled_spec):
    p = tmp_path / "tasks.json"
    p.write_text(__import__("json").dumps([drilled_spec.to_dict()]))
    assert load_task_specs(p) == [drilled_spec]
    # a single object works too
    p.write_text(__import__("json").dumps(drilled_spec.to_dict()))
    assert load_task_specs(p) == [drilled_spec]


_TASK = {"instruction": "x", "material": "steel", "initial_location": "storage_module"}


@pytest.mark.parametrize(
    "raw, message",
    [
        (1, "task: expected object, got number"),
        ({**_TASK, "instruction": 5}, "instruction: expected string, got number"),
        ({**_TASK, "goal_features": 3}, "goal_features: expected list, got number"),
        ({**_TASK, "goal_features": [1]}, "goal_features[0]: expected object, got number"),
        ({**_TASK, "goal_features": [{"kind": ["drilled"]}]}, "goal_features[0].kind: expected string, got list"),
        ({**_TASK, "required_checks": [{"kind": "raw_checked", "detail": {"a": 1}}]},
         "required_checks[0].detail: expected string, got object"),
        ({**_TASK, "id": ["a"]}, "id: expected string, got list"),
        ({**_TASK, "initial_location": ""}, "task initial_location must name a module, got ''"),
        ({**_TASK, "id": 5}, "id: expected string, got number"),
        ({**_TASK, "goal_features": [{"kind": 5}]}, "goal_features[0].kind: expected string, got number"),
        ({**_TASK, "id": None}, "id: expected string, got null"),
    ],
    # The first eight ids are the cases' long-standing test names.
    ids=["1-must be a JSON object, got int", "raw1-wrong type", "raw2-wrong type", "raw3-wrong type",
         "raw4-a feature needs a string kind", "raw5-a string or null detail", "raw6-task id must be a string, got list",
         "raw7-initial_location must name a module", "id-number", "feature-kind-number", "id-null"],
)
def test_from_dict_wrong_json_types(raw, message):
    with pytest.raises(TaskError) as refused:
        TaskSpec.from_dict(raw)
    assert str(refused.value) == message


def test_from_dict_takes_a_null_detail_as_absent():
    raw = {**_TASK, "goal_features": [{"kind": "drilled", "detail": None}, {"kind": "milled"}]}
    assert TaskSpec.from_dict(raw).goal_features == (Feature("drilled"), Feature("milled"))


def test_load_task_specs_rejects_a_non_list(tmp_path):
    p = tmp_path / "tasks.json"
    p.write_text("5")
    with pytest.raises(TaskError, match="^tasks: expected list or object, got number$"):
        load_task_specs(p)


def test_load_task_specs_rejects_a_file_of_no_task(tmp_path):
    p = tmp_path / "tasks.json"
    p.write_text("[]")
    with pytest.raises(TaskError) as refused:
        load_task_specs(p)
    assert str(refused.value) == f"{p} holds no task specification"


def test_load_task_specs_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_task_specs(tmp_path / "nope.json")


def test_find_task_spec_takes_the_first_match(task_specs, drilled_spec):
    twin = drilled_spec._replace(id="twin")
    assert find_task_spec([twin, *task_specs], drilled_spec.instruction) is twin
    assert find_task_spec(task_specs, drilled_spec.instruction) == drilled_spec
    assert find_task_spec(task_specs, "produce nothing known") is None


def test_bundled_task_spec_unknown():
    with pytest.raises(TaskError, match="no bundled task"):
        bundled_task_spec("golden_gear")


def test_random_task_specs_always_achievable(registry):
    rng = random.Random(7)
    for i in range(50):
        spec = random_task_spec(registry, rng, i)
        assert oracle_plan_skills(registry, spec)
        assert spec.initial_location == "storage_module"


def test_random_task_spec_deterministic(registry):
    a = random_task_spec(registry, random.Random(3), 1)
    b = random_task_spec(registry, random.Random(3), 1)
    assert a == b


def test_bundled_specs_fresh_instances():
    assert bundled_task_specs() == bundled_task_specs()
