"""Plan-quality judgments: grammar, executability, satisfaction, minimality.

Grammar checks the process-rule constraints a plan must obey regardless of
task.  Executability replays the plan on the plant the caller hands over.
Satisfaction compares the final plant state with the task specification,
and minimality compares the plan length against the deterministic
planner's shortest solution.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

from .catalog import CatalogError, Registry
from .parsing import FunctionStep, ParseError, parse_skill_sequence
from .planner import oracle_plan_skills
from .plant import PlantFault, PlantSim, transport_functionality_calls
from .tasks import TaskSpec

# Start situation assumed for every judgment (the plant as a new task
# finds it); recorded in each report so results are interpretable.
STANDARD_START = "robot undocked at storage; workpiece in storage inventory"


class GrammarViolation(NamedTuple):
    rule: int
    message: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "message": self.message}


class ValidationReport:
    def __init__(self) -> None:
        self.parsed = False
        self.parse_error: str | None = None
        self.plan: list[str] = []
        self.grammar_ok: bool | None = None
        self.violations: list[GrammarViolation] = []
        self.nonstandard_skills: list[str] = []
        self.executable: bool | None = None
        self.fault: str | None = None
        self.satisfies_task: bool | None = None
        self.missing: list[str] = []
        self.minimal: bool | None = None
        self.plan_length: int | None = None
        self.oracle_length: int | None = None
        self.start_state = STANDARD_START

    def to_dict(self) -> dict:
        return {
            "parsed": self.parsed,
            "parse_error": self.parse_error,
            "plan": list(self.plan),
            "grammar_ok": self.grammar_ok,
            "violations": [v.to_dict() for v in self.violations],
            "nonstandard_skills": list(self.nonstandard_skills),
            "executable": self.executable,
            "fault": self.fault,
            "satisfies_task": self.satisfies_task,
            "missing": list(self.missing),
            "minimal": self.minimal,
            "plan_length": self.plan_length,
            "oracle_length": self.oracle_length,
            "start_state": self.start_state,
        }


def validate_grammar(steps: Sequence[str], registry: Registry) -> list[GrammarViolation]:
    """Check the task-independent process rules; violations are data.

    Checked rules: every code must name a catalog skill (rule 8), the plan
    must start and end with storage-module skills (rule 6), and a module
    change between consecutive location-bound steps needs a transport step
    in between (rule 3).  Transport steps themselves are not location-bound
    (rules 4 and 5).
    """
    violations: list[GrammarViolation] = []
    if not steps:
        return [GrammarViolation(1, "a production process needs at least one process step")]

    # One catalog lookup per distinct known code, in plan order.
    hosts = {code: registry.skill_host(code) for code in dict.fromkeys(steps) if registry.has_skill(code)}
    for code in steps:
        if code not in hosts:
            violations.append(GrammarViolation(8, f"unknown skill code {code}"))
    known = [code for code in steps if code in hosts]

    storage_id = registry.storage_module().id

    if known:
        first, last = steps[0], steps[-1]
        if not (first in hosts and hosts[first].id == storage_id):
            violations.append(
                GrammarViolation(6, f"process must begin with a storage module skill, not {first}")
            )
        if not (last in hosts and hosts[last].id == storage_id):
            violations.append(
                GrammarViolation(6, f"process must end with a storage module skill, not {last}")
            )

    # Rule 3: walk location-bound steps; a module change without an
    # intervening transport step is a violation.
    previous: str | None = None
    transported = False
    for code in known:
        host = hosts[code]
        if host.kind == "transport":
            transported = True
            continue
        if previous is not None and host.id != hosts[previous].id and not transported:
            violations.append(
                GrammarViolation(
                    3,
                    f"transport needed between {previous} and {code} "
                    f"(different production modules)",
                )
            )
        previous = code
        transported = False
    return violations


def nonstandard_skills(steps: Sequence[str], registry: Registry) -> list[str]:
    """Catalog skills with no execution semantics (robot skills other than
    the inter-module transport); their presence is flagged, not rejected."""
    transport_code = registry.transport_skill().code
    flagged = []
    for code in steps:
        if not registry.has_skill(code):
            continue
        if registry.skill_host(code).kind == "transport" and code != transport_code:
            flagged.append(code)
    return flagged


# ---------------------------------------------------------------------------
# Transport routing shared by simulation and live dispatch

class RouteStep(NamedTuple):
    """One dispatchable unit: a plain skill call or an expanded transport."""

    code: str
    transport: bool = False
    start: str | None = None
    target: str | None = None


def plan_route(registry: Registry, steps: Sequence[str], initial_module: str) -> list[RouteStep]:
    """Resolve each step to a dispatch unit, deriving transport endpoints.

    A transport step starts where the workpiece currently is and targets
    the host module of the next location-bound step (itself, when the plan
    ends on transports).  Location-bound steps never move the workpiece.
    """
    transport_code = registry.transport_skill().code

    # The host of the first location-bound step after each step (None when
    # none follows), found in one backward pass.
    targets: list[str | None] = []
    following: str | None = None
    for code in reversed(steps):
        targets.append(following)
        if registry.has_skill(code) and (host := registry.skill_host(code)).kind != "transport":
            following = host.id
    targets.reverse()

    route: list[RouteStep] = []
    wp_module = initial_module
    for code, target in zip(steps, targets):
        if code != transport_code:
            route.append(RouteStep(code=code))
            continue
        if target is None:
            target = wp_module
        route.append(RouteStep(code=code, transport=True, start=wp_module, target=target))
        wp_module = target
    return route


_MOVE_DOCK_TARGET_RE = re.compile(r"to (?:the )?(.+?) module")


def move_dock_target(registry: Registry, description: str) -> str | None:
    """Module id a move_dock step drives to, read from its description."""
    for phrase in _MOVE_DOCK_TARGET_RE.findall(description):
        try:
            return registry.module_by_phrase(phrase).id
        except CatalogError:
            continue
    return None


# ---------------------------------------------------------------------------
# Executability

def simulate_skill_plan(
    registry: Registry,
    plan: Sequence[str],
    plant: PlantSim,
    details: dict[str, str] | None = None,
) -> tuple[bool, str | None, PlantSim]:
    """Replay a skill plan on `plant`, changing it in place.

    Transport skills expand into the canonical five-functionality sequence.
    Returns (executable, first fault reason, `plant` itself).  A caller who
    wants to keep its plant passes `plant.clone()`.
    """
    details = details or {}
    try:
        wp = plant.sole_workpiece()
        for code, transport, start, target in plan_route(registry, plan, wp.location):
            if transport:
                assert start is not None and target is not None
                for name, params in transport_functionality_calls(start, target):
                    plant.apply_functionality(name, params)
            else:
                plant.apply_skill(code, wp.id, detail=details.get(code))
    except PlantFault as exc:
        return False, exc.reason, plant
    return True, None, plant


def function_step_params(registry: Registry, step: FunctionStep) -> dict:
    if step.action != "move_dock":
        return {}
    target = move_dock_target(registry, step.description)
    if target is None:
        raise PlantFault(f"move_dock: no target module named in {step.description!r}")
    return {"target_module": target}


# ---------------------------------------------------------------------------
# Satisfaction and minimality

def goal_details(spec: TaskSpec, registry: Registry) -> dict[str, str]:
    """Map provider skill code -> requested feature detail, where given."""
    details = {}
    for feat in spec.goal_features:
        if feat.detail is not None:
            _, skill = registry.feature_provider(feat.kind)
            details[skill.code] = feat.detail
    return details


def check_satisfaction(final: PlantSim, spec: TaskSpec) -> tuple[bool, list[str]]:
    """Compare the final plant state against the task specification.

    Satisfied when the workpiece rests in storage inventory, every goal
    feature is present (matching detail where the task demands one),
    required incoming checks happened before production started, and
    required final checks happened after it finished.
    """
    storage_id = final.registry.storage_module().id
    wp = final.sole_workpiece()
    missing: list[str] = []

    if wp.location != storage_id or not wp.in_inventory:
        missing.append("workpiece in storage inventory")

    order = {f.kind: i for i, f in enumerate(wp.features)}
    by_kind = {f.kind: f for f in wp.features}

    goal_positions = []
    for goal in spec.goal_features:
        have = by_kind.get(goal.kind)
        if have is None:
            missing.append(goal.kind)
            continue
        if goal.detail is not None and have.detail != goal.detail:
            missing.append(f"{goal.kind} with detail {goal.detail!r}")
            continue
        goal_positions.append(order[goal.kind])

    first_goal = min(goal_positions) if goal_positions else None
    last_goal = max(goal_positions) if goal_positions else None
    goals_all_present = len(goal_positions) == len(spec.goal_features)

    for check in spec.pre_checks():
        if check.kind not in order:
            missing.append(check.kind)
        elif goals_all_present and first_goal is not None and order[check.kind] > first_goal:
            missing.append(f"{check.kind} before production features")
    for check in spec.post_checks():
        if check.kind not in order:
            missing.append(check.kind)
        elif goals_all_present and last_goal is not None and order[check.kind] < last_goal:
            missing.append(f"{check.kind} after production features")

    return (not missing), missing


def check_minimality(
    registry: Registry,
    plan: Sequence[str],
    spec: TaskSpec,
    oracle_lengths: dict[TaskSpec, int] | None = None,
) -> tuple[bool, int, int]:
    """Minimal iff the plan is as short as the planner's shortest solution.

    `oracle_lengths` maps tasks to their shortest plan's length; a task
    not in it yet is planned once and added.
    """
    lengths = {} if oracle_lengths is None else oracle_lengths
    if spec not in lengths:
        lengths[spec] = len(oracle_plan_skills(registry, spec))
    return len(plan) == lengths[spec], len(plan), lengths[spec]


# ---------------------------------------------------------------------------
# The composed pipeline

def validate_plan(
    registry: Registry,
    plan_or_text: str | Sequence[str],
    spec: TaskSpec,
    oracle_lengths: dict[TaskSpec, int] | None = None,
) -> ValidationReport:
    """Parse (if needed), then judge grammar, executability, satisfaction,
    and minimality, stopping at the first failed stage.

    Each later judgment is only evaluated when the earlier one passed;
    unevaluated stages stay None in the report.  `oracle_lengths` is
    handed to `check_minimality`.
    """
    report = ValidationReport()

    if isinstance(plan_or_text, str):
        try:
            plan = list(parse_skill_sequence(plan_or_text).steps)
        except ParseError as exc:
            report.parse_error = str(exc)
            return report
    else:
        plan = list(plan_or_text)
    report.parsed = True
    report.plan = plan
    report.plan_length = len(plan)

    report.violations = validate_grammar(plan, registry)
    report.nonstandard_skills = nonstandard_skills(plan, registry)
    report.grammar_ok = not report.violations
    if not report.grammar_ok:
        return report

    start = PlantSim.standard_start(
        registry,
        material=spec.material,
        location=spec.initial_location,
    )
    executable, fault, final = simulate_skill_plan(
        registry, plan, start, details=goal_details(spec, registry)
    )
    report.executable = executable
    report.fault = fault
    if not executable:
        return report

    satisfied, missing = check_satisfaction(final, spec)
    report.satisfies_task = satisfied
    report.missing = missing
    if not satisfied:
        return report

    report.minimal, _, report.oracle_length = check_minimality(registry, plan, spec, oracle_lengths)
    return report
