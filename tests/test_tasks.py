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
    with pytest.raises(TaskError, match="missing key"):
        TaskSpec.from_dict({"instruction": "x"})


def test_load_task_specs_file(tmp_path, drilled_spec):
    p = tmp_path / "tasks.json"
    p.write_text(__import__("json").dumps([drilled_spec.to_dict()]))
    assert load_task_specs(p) == [drilled_spec]
    # a single object works too
    p.write_text(__import__("json").dumps(drilled_spec.to_dict()))
    assert load_task_specs(p) == [drilled_spec]


@pytest.mark.parametrize(
    "raw, message",
    [
        (1, "must be a JSON object, got int"),
        ({"instruction": 5, "material": "steel", "initial_location": "storage_module"}, "wrong type"),
        ({"instruction": "x", "material": "steel", "initial_location": "storage_module", "goal_features": 3},
         "wrong type"),
        ({"instruction": "x", "material": "steel", "initial_location": "storage_module", "goal_features": [1]},
         "wrong type"),
        ({"instruction": "x", "material": "steel", "initial_location": "storage_module",
          "goal_features": [{"kind": ["drilled"]}]}, "a feature needs a string kind"),
        ({"instruction": "x", "material": "steel", "initial_location": "storage_module",
          "required_checks": [{"kind": "raw_checked", "detail": {"a": 1}}]}, "a string or null detail"),
        ({"id": ["a"], "instruction": "x", "material": "steel", "initial_location": "storage_module"},
         "task id must be a string, got list"),
        ({"instruction": "x", "material": "steel", "initial_location": ""}, "initial_location must name a module"),
    ],
)
def test_from_dict_wrong_json_types(raw, message):
    with pytest.raises(TaskError, match=message):
        TaskSpec.from_dict(raw)


def test_load_task_specs_rejects_a_non_list(tmp_path):
    p = tmp_path / "tasks.json"
    p.write_text("5")
    with pytest.raises(TaskError, match="expected a task object or a list of them"):
        load_task_specs(p)


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
