"""Five-section prompt assembly for the manager and operator agents.

Each prompt is role and goal, context rendered from the registry,
instructions, worked examples, then the input and the bare completion cue
``Output:``.  Prompts are pure functions of registry content and the task
text, so identical calls yield byte-identical prompts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .catalog import (
    Registry,
    alias_url,
    render_manager_context,
    render_operator_context,
)


class PromptError(ValueError):
    """The prompt cannot be built from the given inputs."""


@dataclass(frozen=True)
class PromptSpec:
    """The five prompt sections, pre-rendered but not yet concatenated."""

    role_goal: str
    context: str
    instructions: str
    examples: tuple[tuple[str, str], ...]
    input: str

    def __post_init__(self) -> None:
        for label, value in (
            ("role_goal", self.role_goal),
            ("context", self.context),
            ("instructions", self.instructions),
            ("input", self.input),
        ):
            if not value.strip():
                raise PromptError(f"prompt section {label} must not be empty")
        if not self.examples:
            raise PromptError("a prompt needs at least one worked example")

    def render(self) -> str:
        blocks = [
            f"Role and goal: {self.role_goal}",
            f"Context:\n{self.context}",
            f"Instructions: {self.instructions}",
            "Examples:\n" + "\n\n".join(
                f"Input: {inp} Output: {out}" for inp, out in self.examples
            ),
            "Input: {%s}\nOutput:" % self.input,
        ]
        return "\n\n".join(blocks)


def build_manager_prompt(registry: Registry, task_text: str) -> str:
    if not task_text or not task_text.strip():
        raise PromptError("task text must not be empty")
    assets = registry.prompts
    spec = PromptSpec(
        role_goal=assets.manager_role_goal,
        context=render_manager_context(registry),
        instructions=assets.manager_instructions,
        # Manager examples show the input in task braces, as the final
        # input line does.
        examples=tuple(("{%s}" % e.input, e.output) for e in assets.manager_examples),
        input=task_text,
    )
    return spec.render()


def build_operator_prompt(registry: Registry, module_id: str, demand_text: str) -> str:
    if not demand_text or not demand_text.strip():
        raise PromptError("demand text must not be empty")
    assets = registry.prompts
    examples = tuple(
        (e.input, fill_transport_output(registry, e.start_module, e.target_module))
        for e in assets.operator_examples
    )
    spec = PromptSpec(
        role_goal=assets.operator_role_goal,
        context=render_operator_context(registry, module_id),
        instructions=assets.operator_instructions,
        examples=examples,
        input=demand_text,
    )
    return spec.render()


# ---------------------------------------------------------------------------
# Transport demand text: the skill-call message handed to the operator agent.

_DEMAND_RE = re.compile(r"from (?:the )?(.+?) module to (?:the )?(.+?) module")


def render_transport_demand(registry: Registry, start_module: str, target_module: str) -> str:
    template = registry.prompts.transport_demand_template
    return template.format(
        start=_phrase(registry, start_module),
        target=_phrase(registry, target_module),
    )


def parse_transport_demand(registry: Registry, text: str) -> tuple[str, str]:
    """Recover (start module id, target module id) from a demand text."""
    match = _DEMAND_RE.search(text)
    if match is None:
        raise PromptError(f"not a transport demand: {text!r}")
    start = registry.module_by_phrase(match.group(1))
    target = registry.module_by_phrase(match.group(2))
    return start.id, target.id


def fill_transport_output(registry: Registry, start_module: str, target_module: str) -> str:
    """Canonical five-step operator answer for one transport.

    Shared by the worked example in the operator prompt and the oracle
    backend, so generated and exemplified text cannot drift apart.  URLs
    are written in the singular path spelling the examples use; the plant
    service accepts both spellings.
    """
    robot = registry.transport_module()
    urls = {
        f"url_{fn.name}": alias_url(fn.url)
        for fn in registry.module_functionalities(robot.id)
    }
    # The registry allows only these placeholders in the template.
    return registry.prompts.transport_output_template.format(
        start=_phrase(registry, start_module),
        target=_phrase(registry, target_module),
        **urls,
    )


def _phrase(registry: Registry, module_id: str) -> str:
    module = registry.module(module_id)
    if module.transport_phrase is None:
        raise PromptError(f"module {module_id!r} has no transport phrase")
    return module.transport_phrase
