"""Task specifications: the ground truth a plan is judged against.

A task names the goal features the product must gain, the checks the
process must include, the workpiece material, and where the workpiece
starts.  Three reference tasks ship with the package.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

from .catalog import CheckedRecord, Registry, read_json
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
        if not isinstance(self.id, str):
            raise TaskError(f"task id must be a string, got {type(self.id).__name__}")
        # The simulator reads an empty location as storage; the planner does not.
        if not (isinstance(self.initial_location, str) and self.initial_location):
            raise TaskError(f"task initial_location must name a module, got {self.initial_location!r}")
        for feat in self.goal_features + self.required_checks:
            if not isinstance(feat.kind, str) or not isinstance(feat.detail, (str, type(None))):
                raise TaskError(f"a feature needs a string kind and a string or null detail: {feat._asdict()}")
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
        if not isinstance(raw, dict):
            raise TaskError(f"task record must be a JSON object, got {type(raw).__name__}")
        try:
            return cls(
                id=raw.get("id", ""),
                instruction=raw["instruction"],
                material=raw["material"],
                initial_location=raw["initial_location"],
                goal_features=tuple(Feature.from_dict(f) for f in raw.get("goal_features", [])),
                required_checks=tuple(Feature.from_dict(f) for f in raw.get("required_checks", [])),
            )
        except KeyError as exc:
            raise TaskError(f"task record missing key {exc}") from exc
        except (AttributeError, TypeError) as exc:
            raise TaskError(f"task record has a field of the wrong type: {exc}") from exc


def load_task_specs(path: str | Path) -> list[TaskSpec]:
    raw = read_json(path, "task file")
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise TaskError(f"{path}: expected a task object or a list of them")
    return [TaskSpec.from_dict(item) for item in raw]


def bundled_task_specs() -> list[TaskSpec]:
    """The three reference tasks shipped with the package."""
    raw = read_json(Path(__file__).parent / "data" / "tasks.json", "task file")
    return [TaskSpec.from_dict(item) for item in raw]


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
    production = []
    checks = []
    for module in registry.modules:
        for skill in module.skills:
            if skill.feature is None:
                continue
            if skill.feature in CHECK_KINDS:
                checks.append(skill.feature)
            else:
                production.append(skill.feature)
    return tuple(production), tuple(checks)


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
