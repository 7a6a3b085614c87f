"""Grammar, routing, executability and satisfaction judgments.

The grammar checker is cross-checked against a deliberately naive
re-derivation of the process rules, and the core invariant of the whole
pipeline is pinned here: every grammar-valid plan over the standard skill
alphabet executes fault-free from the standard start.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantagents import bundled_catalog
from plantagents.orchestrator import dispatch_function_steps
from plantagents.parsing import parse_function_steps
from plantagents.plant import Feature, PlantSim
from plantagents.prompts import fill_transport_output
from plantagents.service import LocalPlant
from plantagents.tasks import TaskSpec
from plantagents.validation import (
    STANDARD_START,
    RouteStep,
    check_minimality,
    check_satisfaction,
    goal_details,
    move_dock_target,
    nonstandard_skills,
    plan_route,
    simulate_skill_plan,
    validate_grammar,
    validate_plan,
)

REGISTRY = bundled_catalog()

DRILLED_PLAN = ["S1", "T1", "I1", "T1", "M1", "T1", "I3", "T1", "S2"]
LASERED_PLAN = ["S1", "T1", "I1", "T1", "M2", "T1", "L1", "T1", "I3", "T1", "S2"]
RETURNED_PLAN = ["S1", "T1", "P2", "T1", "I3", "T1", "S2"]
REFERENCE_PLANS = [DRILLED_PLAN, LASERED_PLAN, RETURNED_PLAN]

# the alphabet closure statements quantify over: T2 has no execution
# semantics, so it is excluded
STANDARD_CODES = ["I1", "I2", "I3", "S1", "S2", "T1", "M1", "M2", "M3", "P1", "P2", "L1"]

_HOSTS = {
    code: REGISTRY.skill_entry(code)[0] for code in STANDARD_CODES + ["T2"]
}


def naive_rule_violations(steps):
    """Straight-line restatement of the process rules, for cross-checking.

    Returns the multiset of violated rule numbers.
    """
    rules = []
    if not steps:
        return [1]
    known = [c for c in steps if c in _HOSTS]
    rules += [8] * sum(1 for c in steps if c not in _HOSTS)
    if known:
        for end in (steps[0], steps[-1]):
            if end not in _HOSTS or _HOSTS[end].id != "storage_module":
                rules.append(6)
    fixed = [c for c in known if _HOSTS[c].kind != "transport"]
    gaps = []
    run = []
    for c in known:
        if _HOSTS[c].kind == "transport":
            gaps.append(True)
            run = []
        elif run and _HOSTS[c].id != _HOSTS[run[-1]].id:
            rules.append(3)
            run = [c]
        else:
            run.append(c)
    del fixed, gaps
    return sorted(rules)


# naive_rule_violations has a subtle difference: after a transport it resets
# the run, so the next fixed step never triggers rule 3.  That matches the
# checker's transported flag.


def test_reference_plans_validate_clean():
    for plan in REFERENCE_PLANS:
        assert validate_grammar(plan, REGISTRY) == []


def test_empty_plan_is_rule_1():
    (violation,) = validate_grammar([], REGISTRY)
    assert violation.rule == 1


def test_unknown_code_is_rule_8():
    violations = validate_grammar(["S1", "Q7", "S2"], REGISTRY)
    assert [v.rule for v in violations] == [8]
    assert "Q7" in violations[0].message


def test_missing_storage_ends_are_rule_6():
    violations = validate_grammar(["T1", "I1", "T1"], REGISTRY)
    assert [v.rule for v in violations] == [6, 6]
    violations = validate_grammar(["S1", "T1", "I1"], REGISTRY)
    assert [v.rule for v in violations] == [6]
    assert "must end" in violations[0].message


def test_module_jump_is_rule_3():
    violations = validate_grammar(["S1", "I1", "S2"], REGISTRY)
    assert any(v.rule == 3 for v in violations)
    message = next(v.message for v in violations if v.rule == 3)
    assert "S1" in message and "I1" in message


def test_same_module_needs_no_transport():
    assert validate_grammar(["S1", "S2"], REGISTRY) == []
    assert validate_grammar(["S1", "T1", "I1", "I2", "I3", "T1", "S2"], REGISTRY) == []


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(STANDARD_CODES + ["T2", "Z9", "Q7"]),
        min_size=0,
        max_size=12,
    )
)
def test_grammar_checker_matches_naive_rules(steps):
    found = sorted(v.rule for v in validate_grammar(steps, REGISTRY))
    assert found == naive_rule_violations(steps)


def test_nonstandard_skill_flagged_not_rejected():
    plan = ["S1", "T2", "S2"]
    assert validate_grammar(plan, REGISTRY) == []
    assert nonstandard_skills(plan, REGISTRY) == ["T2"]
    ok, fault, _ = simulate_skill_plan(REGISTRY, plan, PlantSim.standard_start(REGISTRY))
    assert not ok
    assert "transport skills execute via operator agent" in fault


# -- routing -------------------------------------------------------------------


def test_route_of_reference_plan():
    route = plan_route(REGISTRY, DRILLED_PLAN, "storage_module")
    transports = [(r.start, r.target) for r in route if r.transport]
    assert transports == [
        ("storage_module", "inspection_module"),
        ("inspection_module", "cnc_module"),
        ("cnc_module", "inspection_module"),
        ("inspection_module", "storage_module"),
    ]
    assert [r.code for r in route if not r.transport] == ["S1", "I1", "M1", "I3", "S2"]


def test_route_consecutive_transports():
    route = plan_route(REGISTRY, ["S1", "T1", "T1", "I1", "T1", "S2"], "storage_module")
    transports = [(r.start, r.target) for r in route if r.transport]
    assert transports == [
        ("storage_module", "inspection_module"),
        ("inspection_module", "inspection_module"),
        ("inspection_module", "storage_module"),
    ]


def test_route_trailing_transport_is_self():
    route = plan_route(REGISTRY, ["S1", "T1"], "storage_module")
    assert route[-1].start == "storage_module"
    assert route[-1].target == "storage_module"


def forward_scan_route(registry, steps, initial_module):
    """The plain definition of a route: each transport scans forward for
    the next location-bound step and targets its host (its own start when
    none follows)."""
    transport_code = registry.transport_skill().code
    route = []
    wp_module = initial_module
    for i, code in enumerate(steps):
        if code != transport_code:
            route.append(RouteStep(code=code))
            continue
        target = wp_module
        for later in steps[i + 1 :]:
            entry = registry.skill_entry(later)
            if entry is not None and entry[0].kind != "transport":
                target = entry[0].id
                break
        route.append(RouteStep(code=code, transport=True, start=wp_module, target=target))
        wp_module = target
    return route


def test_route_matches_forward_scan_on_every_short_plan():
    # T2 is a robot skill other than the transport; Z9 is no catalog skill
    alphabet = ["S1", "S2", "T1", "I1", "M1", "T2", "Z9"]
    for length in range(7):
        for plan in itertools.product(alphabet, repeat=length):
            for start in ("storage_module", "cnc_module"):
                assert plan_route(REGISTRY, plan, start) == forward_scan_route(REGISTRY, plan, start)


def test_move_dock_target_reads_destination():
    desc = "Move the transport robot to the CNC module and dock it"
    assert move_dock_target(REGISTRY, desc) == "cnc_module"
    assert move_dock_target(REGISTRY, "Undock the transport robot") is None


# -- executability ---------------------------------------------------------------


def test_reference_plans_execute(task_specs):
    by_id = {s.id: s for s in task_specs}
    for plan, task_id in [
        (DRILLED_PLAN, "drilled_sheet"),
        (LASERED_PLAN, "lasered_nameplate"),
        (RETURNED_PLAN, "returned_nameplate"),
    ]:
        spec = by_id[task_id]
        sim = PlantSim.standard_start(REGISTRY, material=spec.material)
        ok, fault, final = simulate_skill_plan(
            REGISTRY, plan, sim, details=goal_details(spec, REGISTRY)
        )
        assert ok, fault
        assert check_satisfaction(final, spec) == (True, [])


def test_simulation_replays_on_the_given_plant():
    sim = PlantSim.standard_start(REGISTRY)
    ok, fault, final = simulate_skill_plan(REGISTRY, DRILLED_PLAN, sim)
    assert ok, fault
    assert final is sim
    assert sim.state.version == 25


def _grammar_valid_plans(max_len):
    """All grammar-valid plans over STANDARD_CODES up to max_len steps."""
    frontier = [(["S1"], "storage_module", False), (["S2"], "storage_module", False)]
    for _ in range(max_len - 1):
        new = []
        for prefix, prev_host, transported in frontier:
            if len(prefix) == max_len:
                continue
            for code in STANDARD_CODES:
                host = _HOSTS[code]
                if host.kind == "transport":
                    new.append((prefix + [code], prev_host, True))
                elif transported or host.id == prev_host:
                    new.append((prefix + [code], host.id, False))
        frontier += new
    return [p for p, _, _ in frontier if _HOSTS[p[-1]].id == "storage_module"]


def test_grammar_valid_implies_executable_exhaustive():
    plans = _grammar_valid_plans(7)
    assert len(plans) > 3000  # sanity: the enumeration really is exhaustive
    for plan in plans:
        assert validate_grammar(plan, REGISTRY) == []
        ok, fault, _ = simulate_skill_plan(REGISTRY, plan, PlantSim.standard_start(REGISTRY))
        assert ok, (plan, fault)


@st.composite
def grammar_valid_plan(draw, min_len=8, max_len=11):
    length = draw(st.integers(min_len, max_len))
    plan = [draw(st.sampled_from(["S1", "S2"]))]
    prev_host, transported = "storage_module", False
    while len(plan) < length - 1:
        options = ["T1"] + [
            c
            for c in STANDARD_CODES
            if _HOSTS[c].kind != "transport"
            and (transported or _HOSTS[c].id == prev_host)
        ]
        code = draw(st.sampled_from(options))
        plan.append(code)
        if code == "T1":
            transported = True
        else:
            prev_host, transported = _HOSTS[code].id, False
    closers = ["S1", "S2"] if (transported or prev_host == "storage_module") else ["T1"]
    plan.append(draw(st.sampled_from(closers)))
    if plan[-1] == "T1":
        plan.append(draw(st.sampled_from(["S1", "S2"])))
    return plan


@settings(max_examples=150, deadline=None)
@given(grammar_valid_plan())
def test_grammar_valid_implies_executable_sampled(plan):
    assert validate_grammar(plan, REGISTRY) == []
    ok, fault, _ = simulate_skill_plan(REGISTRY, plan, PlantSim.standard_start(REGISTRY))
    assert ok, (plan, fault)


def _dispatch(steps, sim):
    """(ok, fault) of dispatching the steps to `sim` as run-task does."""
    last = dispatch_function_steps(REGISTRY, steps, LocalPlant(sim))[-1]
    return last.status == "ok", last.reason


def test_dispatch_function_steps_golden():
    text = fill_transport_output(REGISTRY, "storage_module", "painting_module")
    steps = parse_function_steps(text)
    final = PlantSim.standard_start(REGISTRY)
    ok, fault = _dispatch(steps, final)
    assert ok, fault
    assert final.sole_workpiece().location == "painting_module"


def test_dispatch_function_steps_wrong_pickup_faults():
    text = fill_transport_output(REGISTRY, "cnc_module", "laser_module")
    steps = parse_function_steps(text)
    ok, fault = _dispatch(steps, PlantSim.standard_start(REGISTRY))
    assert not ok
    assert "load: no workpiece at cnc_module" in fault


# -- satisfaction ------------------------------------------------------------------


def _final_state(plan, spec):
    sim = PlantSim.standard_start(REGISTRY, material=spec.material)
    ok, fault, final = simulate_skill_plan(
        REGISTRY, plan, sim, details=goal_details(spec, REGISTRY)
    )
    assert ok, fault
    return final


def test_satisfaction_needs_goal_feature(drilled_spec):
    final = _final_state(["S1", "T1", "I1", "I3", "T1", "S2"], drilled_spec)
    ok, missing = check_satisfaction(final, drilled_spec)
    assert not ok
    assert missing == ["drilled"]


def test_satisfaction_orders_pre_check(drilled_spec):
    # raw check happens after drilling: rejected even though all features exist
    plan = ["S1", "T1", "M1", "T1", "I1", "I3", "T1", "S2"]
    final = _final_state(plan, drilled_spec)
    ok, missing = check_satisfaction(final, drilled_spec)
    assert not ok
    assert "raw_checked before production features" in missing


def test_satisfaction_orders_post_check(lasered_spec):
    plan = ["S1", "T1", "I1", "I3", "T1", "M2", "T1", "L1", "T1", "S2"]
    final = _final_state(plan, lasered_spec)
    ok, missing = check_satisfaction(final, lasered_spec)
    assert not ok
    assert "quality_tested after production features" in missing


def test_satisfaction_requires_storage_finish(returned_spec):
    final = _final_state(["S1", "T1", "P2", "T1", "I3"], returned_spec)
    ok, missing = check_satisfaction(final, returned_spec)
    assert not ok
    assert "workpiece in storage inventory" in missing


def test_satisfaction_checks_detail(returned_spec):
    # simulate without details: P2 applies the feature with no detail
    sim = PlantSim.standard_start(REGISTRY, material=returned_spec.material)
    ok, _, final = simulate_skill_plan(REGISTRY, RETURNED_PLAN, sim)
    assert ok
    satisfied, missing = check_satisfaction(final, returned_spec)
    assert not satisfied
    assert missing == ["paint_pattern with detail 'backside customer logo'"]


def test_goal_details(returned_spec, drilled_spec):
    assert goal_details(returned_spec, REGISTRY) == {"P2": "backside customer logo"}
    assert goal_details(drilled_spec, REGISTRY) == {}


def test_extra_features_are_harmless(drilled_spec):
    plan = ["S1", "T1", "I1", "I2", "T1", "M1", "T1", "I3", "T1", "S2"]
    final = _final_state(plan, drilled_spec)
    assert check_satisfaction(final, drilled_spec) == (True, [])


def test_check_minimality(drilled_spec):
    minimal, got, oracle = check_minimality(REGISTRY, DRILLED_PLAN, drilled_spec)
    assert minimal and got == oracle == 9
    padded = DRILLED_PLAN[:5] + ["T1", "T1"] + DRILLED_PLAN[5:]
    minimal, got, oracle = check_minimality(REGISTRY, padded, drilled_spec)
    assert not minimal and got == 11 and oracle == 9


# -- the composed pipeline -----------------------------------------------------


def test_validate_plan_full_pass(returned_spec):
    report = validate_plan(REGISTRY, RETURNED_PLAN, returned_spec)
    assert report.parsed and report.grammar_ok and report.executable
    assert report.satisfies_task and report.minimal
    assert report.plan_length == report.oracle_length == 7
    assert report.start_state == STANDARD_START
    d = report.to_dict()
    assert d["plan"] == RETURNED_PLAN
    assert d["violations"] == []


def test_validate_plan_stops_at_parse(returned_spec):
    report = validate_plan(REGISTRY, "no plan here", returned_spec)
    assert not report.parsed
    assert report.parse_error
    assert report.grammar_ok is None
    assert report.executable is None
    assert report.minimal is None


def test_validate_plan_stops_at_grammar(returned_spec):
    report = validate_plan(REGISTRY, ["S1", "P2", "S2"], returned_spec)
    assert report.parsed
    assert report.grammar_ok is False
    assert [v.rule for v in report.violations] == [3, 3]
    assert report.executable is None


def test_validate_plan_stops_at_satisfaction(returned_spec):
    report = validate_plan(REGISTRY, ["S1", "T1", "P1", "T1", "I3", "T1", "S2"], returned_spec)
    assert report.executable is True
    assert report.satisfies_task is False
    assert report.minimal is None


def test_validate_plan_accepts_completion_text(returned_spec):
    text = "{(S1) – (T1) – (P2) – (T1) – (I3) – (T1) – (S2)} Explanation: done."
    report = validate_plan(REGISTRY, text, returned_spec)
    assert report.satisfies_task and report.minimal


def test_validate_plan_reports_fault():
    spec = TaskSpec(
        instruction="polish a workpiece",
        initial_location="storage_module",
        material="steel",
        goal_features=(Feature(kind="polished"),),
    )
    # grammar-valid but starts production before retrieving: still fine
    # (the storage station hands the workpiece to the robot itself), so
    # force a fault with the non-executable robot skill instead
    report = validate_plan(REGISTRY, ["S1", "T2", "S2"], spec)
    assert report.grammar_ok is True
    assert report.executable is False
    assert "transport skills" in report.fault
    assert report.satisfies_task is None
