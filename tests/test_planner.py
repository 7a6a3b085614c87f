import os
import random
import subprocess
import sys
from collections import deque

import pytest

import plantagents
from plantagents.plant import Feature
from plantagents.planner import PlanningError, oracle_plan_skills
from plantagents.tasks import TaskSpec, random_task_spec
from plantagents.validation import validate_plan

DRILLED_PLAN = ["S1", "T1", "I1", "T1", "M1", "T1", "I3", "T1", "S2"]
LASERED_PLAN = ["S1", "T1", "I1", "T1", "M2", "T1", "L1", "T1", "I3", "T1", "S2"]
RETURNED_PLAN = ["S1", "T1", "P2", "T1", "I3", "T1", "S2"]


def test_reference_plans(registry, drilled_spec, lasered_spec, returned_spec):
    assert oracle_plan_skills(registry, drilled_spec) == DRILLED_PLAN
    assert oracle_plan_skills(registry, lasered_spec) == LASERED_PLAN
    assert oracle_plan_skills(registry, returned_spec) == RETURNED_PLAN


def test_catalog_order_breaks_ties(registry, lasered_spec):
    # milling happens before lasering because the CNC module is listed first
    plan = oracle_plan_skills(registry, lasered_spec)
    assert plan.index("M2") < plan.index("L1")


def test_plans_validate_as_minimal(registry, task_specs):
    for spec in task_specs:
        plan = oracle_plan_skills(registry, spec)
        report = validate_plan(registry, plan, spec)
        assert report.grammar_ok and report.executable
        assert report.satisfies_task and report.minimal


def test_no_goals_shortest_loop(registry):
    spec = TaskSpec(
        instruction="cycle a workpiece through storage",
        initial_location="storage_module",
        material="steel",
    )
    assert oracle_plan_skills(registry, spec) == ["S1", "S2"]


def test_checks_only_task(registry):
    spec = TaskSpec(
        instruction="inspect a workpiece",
        initial_location="storage_module",
        material="steel",
        required_checks=(Feature(kind="raw_checked"),),
    )
    assert oracle_plan_skills(registry, spec) == ["S1", "T1", "I1", "T1", "S2"]


def test_repeated_calls_identical(registry, task_specs):
    for spec in task_specs:
        plans = {tuple(oracle_plan_skills(registry, spec)) for _ in range(5)}
        assert len(plans) == 1


def test_unprovidable_goal(registry):
    spec = TaskSpec(
        instruction="engrave a workpiece",
        initial_location="storage_module",
        material="steel",
        goal_features=(Feature(kind="engraved"),),
    )
    with pytest.raises(PlanningError, match="no skill provides"):
        oracle_plan_skills(registry, spec)


def test_nonstorage_start_rejected(registry):
    spec = TaskSpec(
        instruction="finish a workpiece already at the CNC machine",
        initial_location="cnc_module",
        material="steel",
    )
    with pytest.raises(PlanningError, match="storage"):
        oracle_plan_skills(registry, spec)


def test_stable_across_hash_seeds(registry, task_specs):
    """Plan text must not depend on the interpreter's hash randomization."""
    code = (
        "from plantagents import bundled_catalog, bundled_task_specs;"
        "from plantagents.planner import oracle_plan_skills;"
        "r = bundled_catalog();"
        "print([oracle_plan_skills(r, s) for s in bundled_task_specs()])"
    )
    # The child must import the same package as this process, installed or not.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(plantagents.__file__)))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outs = set()
    for seed in ("0", "1", "424242"):
        proc = subprocess.run(
            [sys.executable, "-B", "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    assert outs.pop() == str([oracle_plan_skills(registry, s) for s in task_specs]) + "\n"


# -- independent shortest-length search -------------------------------------
# A plain breadth-first search over (module, feature history, shelved) with
# single-skill moves.  No cost heap, no tie-breaks: just depth layers.  The
# planner must never return a longer plan than this finds.


def _naive_shortest_length(registry, spec):
    storage = registry.storage_module().id
    hosts = {}
    for module in registry.modules:
        for skill in module.skills:
            if skill.feature is not None:
                hosts[skill.code] = (module.id, skill.feature)

    pre = [f.kind for f in spec.pre_checks()]
    post = [f.kind for f in spec.post_checks()]
    goals = [f.kind for f in spec.goal_features]

    def satisfied(module, feats, shelved):
        if module != storage or not shelved:
            return False
        order = {k: i for i, k in enumerate(feats)}
        if any(g not in order for g in goals):
            return False
        firsts = [order[g] for g in goals]
        lo, hi = (min(firsts), max(firsts)) if firsts else (None, None)
        for k in pre:
            if k not in order or (lo is not None and order[k] > lo):
                return False
        for k in post:
            if k not in order or (hi is not None and order[k] < hi):
                return False
        return True

    # a plan must open and close with a storage skill, so depth 0 offers
    # only those; the satisfied() predicate then demands a shelved finish,
    # which only the store skill produces
    start = (storage, (), True, False)  # module, features, shelved, at hand-off
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        (module, feats, shelved, handoff), depth = frontier.popleft()
        nexts = []
        if module == storage:
            nexts.append((module, feats, False, True))  # S1
            if handoff:
                nexts.append((module, feats, True, False))  # S2
        if depth > 0 and (handoff or (module == storage and shelved)):
            for code, (host, kind) in hosts.items():
                if host == module and handoff and kind not in feats:
                    nexts.append((module, feats + (kind,), False, True))
            for other in registry.modules:
                if other.id != module and other.kind != "transport":
                    nexts.append((other.id, feats, False, True))  # one T1
        for state in nexts:
            if satisfied(state[0], state[1], state[2]):
                return depth + 1
            if state in seen:
                continue
            seen.add(state)
            frontier.append((state, depth + 1))
    raise AssertionError("search exhausted without a satisfying plan")


def test_oracle_length_matches_naive_search(registry, task_specs):
    for spec in task_specs:
        assert len(oracle_plan_skills(registry, spec)) == _naive_shortest_length(registry, spec)


def test_oracle_length_matches_naive_search_random(registry):
    rng = random.Random(2024)
    for i in range(12):
        spec = random_task_spec(registry, rng, i)
        assert len(oracle_plan_skills(registry, spec)) == _naive_shortest_length(
            registry, spec
        ), spec
