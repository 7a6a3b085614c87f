"""Five-section prompt assembly for the manager and operator agents.

Each prompt is role and goal, context rendered from the registry,
instructions, worked examples, then the input and the bare completion cue
``Output:``.  Prompts are pure functions of registry content and the task
text, so identical calls yield byte-identical prompts.
"""

from __future__ import annotations

import re
import string
from collections.abc import Iterable
from functools import lru_cache

from .catalog import Registry, render_manager_context, render_operator_context


class PromptError(ValueError):
    """The prompt cannot be built from the given inputs."""


def _render(role_goal: str, context: str, instructions: str, examples: Iterable[tuple[str, str]], text: str) -> str:
    """The five sections, blank-line separated; `examples` are (input, output) pairs, `text` the new input."""
    return "\n\n".join((
        f"Role and goal: {role_goal}",
        f"Context:\n{context}",
        f"Instructions: {instructions}",
        "Examples:\n" + "\n\n".join(f"Input: {inp} Output: {out}" for inp, out in examples),
        "Input: {%s}\nOutput:" % text,
    ))


def build_manager_prompt(registry: Registry, task_text: str) -> str:
    if not task_text or not task_text.strip():
        raise PromptError("task text must not be empty")
    assets = registry.prompts
    return _render(
        assets.manager_role_goal,
        render_manager_context(registry),
        assets.manager_instructions,
        # Manager examples show the input in task braces, as the final
        # input line does.
        (("{%s}" % e.input, e.output) for e in assets.manager_examples),
        task_text,
    )


def build_operator_prompt(registry: Registry, module_id: str, demand_text: str) -> str:
    if not demand_text or not demand_text.strip():
        raise PromptError("demand text must not be empty")
    assets = registry.prompts
    return _render(
        assets.operator_role_goal,
        render_operator_context(registry, module_id),
        assets.operator_instructions,
        ((e.input, fill_transport_output(registry, e.start_module, e.target_module)) for e in assets.operator_examples),
        demand_text,
    )


# ---------------------------------------------------------------------------
# Transport demand text: the skill-call message handed to the operator agent.

def render_transport_demand(registry: Registry, start_module: str, target_module: str) -> str:
    template = registry.prompts.transport_demand_template
    return template.format(
        start=_phrase(registry, start_module),
        target=_phrase(registry, target_module),
    )


def parse_transport_demand(registry: Registry, text: str) -> tuple[str, str]:
    """Recover (start module id, target module id) from a demand text, by
    reading it back through the catalog's demand template."""
    match = _demand_pattern(registry.prompts.transport_demand_template).fullmatch(text)
    if match is None:
        raise PromptError(f"not a transport demand: {text!r}")
    start = registry.module_by_phrase(match["start"])
    target = registry.module_by_phrase(match["target"])
    return start.id, target.id


@lru_cache(maxsize=8)
def _demand_pattern(template: str) -> re.Pattern[str]:
    """The inverse of `template`: its literal text escaped, the first
    {start} and {target} a named group each, and a repeat of either a
    back-reference to it."""
    parts, seen = [], set()
    for literal, name, _, _ in string.Formatter().parse(template):
        parts.append(re.escape(literal))
        if name is not None:
            parts.append(f"(?P={name})" if name in seen else f"(?P<{name}>.+?)")
            seen.add(name)
    return re.compile("".join(parts), re.DOTALL)


def fill_transport_output(registry: Registry, start_module: str, target_module: str) -> str:
    """Canonical operator answer for one transport: the catalog's output
    template, whose steps `Registry.transport_calls` reads as the
    transport's functionality calls.

    Shared by the worked example in the operator prompt and the oracle
    backend, so generated and exemplified text cannot drift apart.  URLs
    are written in the singular path spelling the examples use; the plant
    service accepts both spellings.
    """
    # The registry allows only these placeholders in the template.
    return registry.prompts.transport_output_template.format(
        start=_phrase(registry, start_module),
        target=_phrase(registry, target_module),
        **registry.output_urls(),
    )


def _phrase(registry: Registry, module_id: str) -> str:
    module = registry.module(module_id)
    if module.transport_phrase is None:
        raise PromptError(f"module {module_id!r} has no transport phrase")
    return module.transport_phrase
