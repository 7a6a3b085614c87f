"""Parsers that turn generated completion text into structured plans.

Manager completions carry a brace-delimited skill sequence; operator
completions carry numbered functionality steps with service URLs.  Both
formats follow the worked examples the agents are shown, but generated
text drifts, so the parsers tolerate the known separator variants.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .jsonread import checked, decode_json, each, get


class ParseError(ValueError):
    """The text does not contain a recognizable plan."""


class SkillPlan(NamedTuple):
    steps: tuple[str, ...]
    explanation_lines: tuple[str, ...] = ()


class FunctionStep(NamedTuple):
    step: int
    description: str
    action: str
    url: str


# First brace-delimited group, non-greedy so trailing explanation braces
# never get swallowed.
_BRACE_RE = re.compile(r"\{(.*?)\}", re.DOTALL)

# Sequences separate codes with a dash; accept hyphen-minus, en and em dash.
_DASH_SPLIT_RE = re.compile(r"[-–—]")

_CODE_RE = re.compile(r"[A-Za-z]+\d+")

# One numbered functionality step: "(n) <sentence>. Call the functionality
# "<name>" using the URL "<url>"".  The trailing rationale clause is ignored.
_STEP_RE = re.compile(
    r'\((\d+)\) (.+)\. Call the functionality "(\w+)" using the URL "([^"\s]+)"'
)

_EXPLANATION_RE = re.compile(r"Explanation:\s*(.*)", re.DOTALL)


def is_skill_code(token: str) -> bool:
    """Whether a plan can name `token` as a skill: ASCII letters, then decimal digits (`M1`)."""
    return _CODE_RE.fullmatch(token) is not None


def parse_skill_sequence(text: str) -> SkillPlan:
    """Extract the skill sequence from a manager completion.

    The first ``{...}`` group is split on dash separators; each token must
    reduce to a skill-code shape like ``S1`` (surrounding parentheses and
    whitespace are shed).
    """
    if not text or not text.strip():
        raise ParseError("empty completion text")
    match = _BRACE_RE.search(text)
    if match is None:
        raise ParseError("no brace-delimited skill sequence found")
    body = match.group(1).strip()
    if not body:
        raise ParseError("empty skill sequence")
    steps = []
    for raw in _DASH_SPLIT_RE.split(body):
        token = raw.strip().strip("()").strip()
        if not token:
            raise ParseError("empty token in skill sequence")
        if not is_skill_code(token):
            raise ParseError(f"not a skill code: {token!r}")
        steps.append(token)
    explanation = ()
    expl = _EXPLANATION_RE.search(text, match.end())
    if expl:
        lines = [ln.strip() for ln in expl.group(1).splitlines()]
        explanation = tuple(ln for ln in lines if ln)
    return SkillPlan(steps=tuple(steps), explanation_lines=explanation)


def parse_function_steps(text: str) -> list[FunctionStep]:
    """Extract numbered functionality steps from an operator completion.

    Step numbers must start at 1 and increase without gaps.
    """
    if not text or not text.strip():
        raise ParseError("empty completion text")
    try:
        steps = [FunctionStep(int(m[1]), m[2], m[3], m[4]) for m in _STEP_RE.finditer(text)]
    except ValueError:  # `int` refuses a number of more than 4300 digits
        raise ParseError("a step number has too many digits") from None
    if not steps:
        raise ParseError("no functionality steps found")
    for expected, found in enumerate(steps, start=1):
        if found.step != expected:
            raise ParseError(f"missing step {expected}")
    return steps


def steps_to_json(steps: list[FunctionStep]) -> str:
    """Serialize steps as the JSON array used for control service calls."""
    # `_asdict` keys come in field order, which fixes the key order contract.
    return json.dumps([s._asdict() for s in steps])


def _read_step(raw: dict) -> FunctionStep:
    return FunctionStep(get(raw, "step", int), get(raw, "description"), get(raw, "action"), get(raw, "url"))


def steps_from_json(text: str) -> list[FunctionStep]:
    try:
        payload = decode_json(text)
    except ValueError as exc:  # also a number with more digits than `int` converts, and JSON nested too deeply
        raise ParseError(f"not valid JSON: {exc}") from exc
    return list(checked(payload, list, lambda steps: each(steps, _read_step), ParseError, "steps"))
