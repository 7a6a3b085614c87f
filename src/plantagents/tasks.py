"""Task specifications: the ground truth a plan is judged against.

A task names the goal features the product must gain, the checks the
process must include, the workpiece material, and where the workpiece
starts.  Three reference tasks ship with the package.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

from .catalog import CheckedRecord, Registry
from .jsonread import checked, each, get, items, read_json
from .plant import MATERIALS, Feature

# Check features applied before any goal feature (incoming inspection)
# versus after all of them (final quality control).
PRE_CHECK_KINDS = ("raw_checked", "fault_checked")
POST_CHECK_KINDS = ("quality_tested",)
CHECK_KINDS = PRE_CHECK_KINDS + POST_CHECK_KINDS


class TaskError(ValueError):
    """A task specification is malformed or unachievable."""


class _TaskSpecFields(NamedTuple):
    instruction: str
    initial_location: str
    material: str
    goal_features: tuple[Feature, ...] = ()
    required_checks: tuple[Feature, ...] = ()
    id: str = ""


class TaskSpec(CheckedRecord, _TaskSpecFields):
    __slots__ = ()

    def _check(self) -> None:
        # The simulator reads an empty location as storage; the planner does not.
        if not self.initial_location:
            raise TaskError(f"task initial_location must name a module, got {self.initial_location!r}")
        if not self.instruction.strip():
            raise TaskError("task instruction must not be empty")
        if self.material not in MATERIALS:
            raise TaskError(f"unknown material {self.material!r}")
        for feat in self.goal_features:
            if feat.kind in CHECK_KINDS:
                raise TaskError(f"{feat.kind} is a check, not a goal feature")
        for feat in self.required_checks:
            if feat.kind not in CHECK_KINDS:
                raise TaskError(f"{feat.kind} is not a check feature")

    def pre_checks(self) -> tuple[Feature, ...]:
        return tuple(f for f in self.required_checks if f.kind in PRE_CHECK_KINDS)

    def post_checks(self) -> tuple[Feature, ...]:
        return tuple(f for f in self.required_checks if f.kind in POST_CHECK_KINDS)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "instruction": self.instruction,
            "material": self.material,
            "initial_location": self.initial_location,
            "goal_features": [f._asdict() for f in self.goal_features],
            "required_checks": [f._asdict() for f in self.required_checks],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TaskSpec":
        return checked(raw, dict, read_task, TaskError, "task")


def _read_feature(raw: dict) -> Feature:
    return Feature(get(raw, "kind"), get(raw, "detail", default=None))


def read_task(raw: dict) -> TaskSpec:
    """The task a JSON object describes, each value's type checked as `jsonread.get` checks it."""
    return TaskSpec(
        id=get(raw, "id", default=""),
        instruction=get(raw, "instruction"),
        material=get(raw, "material"),
        initial_location=get(raw, "initial_location"),
        goal_features=items(raw, "goal_features", _read_feature, default=()),
        required_checks=items(raw, "required_checks", _read_feature, default=()),
    )


def _read_tasks(raw: list | dict) -> list[TaskSpec]:
    return [read_task(raw)] if type(raw) is dict else list(each(raw, read_task))


def load_task_specs(path: str | Path) -> list[TaskSpec]:
    """The tasks of a task file: one object, or a list of at least one."""
    specs = checked(read_json(path, "task file"), (list, dict), _read_tasks, TaskError, "tasks")
    if not specs:
        raise TaskError(f"{path} holds no task specification")
    return specs


def bundled_task_specs() -> list[TaskSpec]:
    """The three reference tasks shipped with the package."""
    raw = read_json(Path(__file__).parent / "data" / "tasks.json", "task file")
    return checked(raw, list, _read_tasks, TaskError, "tasks")


def bundled_task_spec(task_id: str) -> TaskSpec:
    for spec in bundled_task_specs():
        if spec.id == task_id:
            return spec
    raise TaskError(f"no bundled task named {task_id!r}")


def find_task_spec(specs: list[TaskSpec], instruction: str) -> TaskSpec | None:
    """The first of `specs` with exactly this instruction text, if any."""
    return next((spec for spec in specs if spec.instruction == instruction), None)


def _vocabulary(registry: Registry) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The feature kinds the registry's skills provide: (production, checks)."""
    features = [skill.feature for module in registry.modules for skill in module.skills if skill.feature is not None]
    return tuple(f for f in features if f not in CHECK_KINDS), tuple(f for f in features if f in CHECK_KINDS)


def random_task_spec(registry: Registry, rng: random.Random, index: int = 0) -> TaskSpec:
    """A random but always achievable task over the registry's skills.

    Used by the closure test suite and the demo scripts: any returned spec
    must be solvable by the deterministic planner.
    """
    production_kinds, all_check_kinds = _vocabulary(registry)
    n_goals = rng.randint(0, min(3, len(production_kinds)))
    goal_kinds = rng.sample(production_kinds, n_goals)
    check_kinds = [k for k in all_check_kinds if rng.random() < 0.5]
    material = rng.choice(MATERIALS)
    goals = tuple(Feature(kind=k) for k in goal_kinds)
    checks = tuple(Feature(kind=k) for k in check_kinds)
    described = ", ".join(goal_kinds) if goal_kinds else "no machining"
    return TaskSpec(
        id=f"random_{index}",
        instruction=f"produce a {material} workpiece with {described} (sample {index})",
        material=material,
        initial_location=registry.storage_module().id,
        goal_features=goals,
        required_checks=checks,
    )
