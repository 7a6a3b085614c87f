"""A transport is the catalog's operator output template: over template
variants that load, `validate_plan`'s executability and fault agree with
what `run_task` dispatches over `LocalPlant` for each bundled task's
oracle plan."""

import json
import re
from importlib import resources

import pytest

from plantagents import LocalPlant, OracleBackend, PlantSim, bundled_task_specs, run_task
from plantagents.catalog import registry_from_dict
from plantagents.planner import oracle_plan_skills
from plantagents.validation import validate_plan

RAW = json.loads(resources.files("plantagents.data").joinpath("catalog.json").read_text("utf-8"))
TEMPLATE = RAW["prompts"]["operator"]["output_template"]
HEAD, *STEPS = re.split(r"\n\(\d+\) ", TEMPLATE)
# The steps a variant may drop or repeat: the docked check needs both move_dock steps.
OTHERS = [i for i, step in enumerate(STEPS) if '"move_dock"' not in step]


def _swapped(i):
    steps = list(STEPS)
    steps[i], steps[i + 1] = steps[i + 1], steps[i]
    return steps


VARIANTS = {
    "bundled": STEPS,
    **{f"drop_{i + 1}": STEPS[:i] + STEPS[i + 1:] for i in OTHERS},
    **{f"repeat_{i + 1}": STEPS[:i + 1] + STEPS[i:] for i in OTHERS},
    **{f"swap_{i + 1}_{i + 2}": _swapped(i) for i in range(len(STEPS) - 1)},
}


def _registry(steps):
    data = json.loads(json.dumps(RAW))
    data["prompts"]["operator"]["output_template"] = HEAD + "".join(
        f"\n({n}) {step}" for n, step in enumerate(steps, start=1))
    return registry_from_dict(data)


@pytest.mark.parametrize("name", VARIANTS)
def test_validation_and_a_run_agree_on_every_template_variant(name):
    registry = _registry(VARIANTS[name])
    specs = bundled_task_specs()
    assert [call for call, _ in registry.transport_calls("storage_module", "cnc_module")] == [
        re.search(r'functionality "(\w+)"', step)[1] for step in VARIANTS[name]]
    for spec in specs:
        report = validate_plan(registry, oracle_plan_skills(registry, spec), spec)
        trace = run_task(spec.instruction, OracleBackend(registry, specs), registry,
                         LocalPlant(PlantSim.standard_start(registry)), spec)
        assert report.executable == (trace.outcome == "completed"), spec.id
        assert report.fault == trace.abort_reason, spec.id
        assert report.executable == (name == "bundled"), spec.id


def test_a_template_without_its_load_step_fails_where_a_run_does():
    registry = _registry(VARIANTS["drop_2"])
    [spec] = [s for s in bundled_task_specs() if s.id == "drilled_sheet"]
    report = validate_plan(registry, oracle_plan_skills(registry, spec), spec)
    assert report.fault == "undock: robot not carrying a workpiece"
