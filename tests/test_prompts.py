import json
from importlib import resources

import pytest

from plantagents.catalog import CatalogError, registry_from_dict
from plantagents.prompts import (
    PromptError,
    build_manager_prompt,
    build_operator_prompt,
    fill_transport_output,
    parse_transport_demand,
    render_transport_demand,
)

SECTION_CUES = ["Role and goal: ", "Context:\n", "Instructions: ", "Examples:\n", "Input: {"]


def section_positions(prompt):
    positions = [prompt.find(cue) for cue in SECTION_CUES[:-1]]
    positions.append(prompt.rfind(SECTION_CUES[-1]))
    return positions


@pytest.mark.parametrize("task_id", ["drilled_sheet", "lasered_nameplate", "returned_nameplate"])
def test_manager_prompt_sections_in_order(registry, task_specs, task_id):
    spec = next(s for s in task_specs if s.id == task_id)
    prompt = build_manager_prompt(registry, spec.instruction)
    positions = section_positions(prompt)
    assert positions[0] == 0
    assert all(a < b for a, b in zip(positions, positions[1:])), positions


def test_manager_prompt_ends_with_cue(registry, drilled_spec):
    prompt = build_manager_prompt(registry, drilled_spec.instruction)
    assert prompt.endswith("Output:")
    assert prompt.rstrip() == prompt


def test_manager_prompt_embeds_task_braced(registry):
    prompt = build_manager_prompt(registry, "produce a steel cube")
    assert prompt.endswith("Input: {produce a steel cube}\nOutput:")


def test_manager_prompt_byte_identical(registry, task_specs):
    for spec in task_specs:
        builds = {build_manager_prompt(registry, spec.instruction) for _ in range(3)}
        assert len(builds) == 1


def test_manager_examples_show_braced_io(registry):
    prompt = build_manager_prompt(registry, "anything")
    assert "Input: {produce a steel sheet with a hole} Output: {(S1)" in prompt


def test_manager_prompt_rejects_empty_task(registry):
    with pytest.raises(PromptError, match="task text"):
        build_manager_prompt(registry, "   ")


def test_operator_prompt_sections(registry):
    demand = render_transport_demand(registry, "storage_module", "painting_module")
    prompt = build_operator_prompt(registry, "robotino_7", demand)
    positions = section_positions(prompt)
    assert positions[0] == 0
    assert all(a < b for a, b in zip(positions, positions[1:]))
    assert prompt.endswith("Output:")


def test_operator_prompt_contains_worked_transport(registry):
    demand = render_transport_demand(registry, "storage_module", "painting_module")
    prompt = build_operator_prompt(registry, "robotino_7", demand)
    # example input is written bare, not braced
    assert "Input: (T1) Transport the workpiece" in prompt
    assert 'Call the functionality "move_dock"' in prompt


def test_operator_prompt_rejects_empty_demand(registry):
    with pytest.raises(PromptError, match="demand text"):
        build_operator_prompt(registry, "robotino_7", "")


def test_demand_roundtrip(registry):
    for start, target in [
        ("storage_module", "painting_module"),
        ("laser_module", "cnc_module"),
        ("inspection_module", "storage_module"),
    ]:
        text = render_transport_demand(registry, start, target)
        assert parse_transport_demand(registry, text) == (start, target)


def test_demand_text_shape(registry):
    text = render_transport_demand(registry, "storage_module", "painting_module")
    assert text == "(T1) Transport the workpiece from the storage module to the painting module."


def test_parse_demand_rejects_other_text(registry):
    with pytest.raises(PromptError, match="not a transport demand"):
        parse_transport_demand(registry, "please polish the workpiece")


def test_parse_demand_rejects_unknown_phrase(registry):
    text = "(T1) Transport the workpiece from the foundry module to the storage module."
    with pytest.raises(Exception):
        parse_transport_demand(registry, text)


def _reworded(template):
    """The bundled catalog with another transport demand template."""
    data = json.loads(resources.files("plantagents.data").joinpath("catalog.json").read_text("utf-8"))
    data["prompts"]["operator"]["demand_template"] = template
    return registry_from_dict(data)


@pytest.mark.parametrize("template", [
    "(T1) Carry the workpiece from {start} over to {target}.",
    "Move it: {start} -> {target}? (from {start}, [not] to {{start}}*)",
    "{target} <- {start}",
])
def test_demand_roundtrip_through_a_reworded_template(registry, template):
    """A demand is read back through the catalog's own template, its
    literal text matched as written."""
    reworded = _reworded(template)
    for start, target in [("storage_module", "painting_module"), ("laser_module", "cnc_module")]:
        text = render_transport_demand(reworded, start, target)
        assert parse_transport_demand(reworded, text) == (start, target)
    with pytest.raises(PromptError, match="not a transport demand"):
        parse_transport_demand(reworded, render_transport_demand(registry, "storage_module", "cnc_module"))
    with pytest.raises(CatalogError, match="no module with transport phrase 'foundry'"):
        parse_transport_demand(reworded, template.format(start="foundry", target="CNC"))


def test_a_repeated_demand_placeholder_must_repeat_its_phrase(registry):
    template = "Move it: {start} -> {target} (from {start})"
    reworded = _reworded(template)
    text = "Move it: storage -> CNC (from storage)"
    assert parse_transport_demand(reworded, text) == ("storage_module", "cnc_module")
    with pytest.raises(PromptError, match="not a transport demand"):
        parse_transport_demand(reworded, "Move it: storage -> CNC (from painting)")


def test_fill_transport_output_uses_singular_urls(registry):
    text = fill_transport_output(registry, "storage_module", "cnc_module")
    assert "/robotino_7/functionality/move_dock" in text
    assert "/functionalities/" not in text


def test_fill_transport_output_mentions_both_modules(registry):
    text = fill_transport_output(registry, "laser_module", "inspection_module")
    assert "from the laser machine module" in text
    assert "to the inspection module" in text


def test_sections_separated_by_blank_lines(registry):
    prompt = build_manager_prompt(registry, "task")
    assert "\n\nContext:\n" in prompt
    assert "\n\nInstructions: " in prompt
    assert "\n\nExamples:\n" in prompt
    assert "\n\nInput: {task}\nOutput:" in prompt
