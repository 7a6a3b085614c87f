import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantagents import bundled_catalog
from plantagents.plant import (
    ON_ROBOT,
    PlantFault,
    PlantSim,
    PlantState,
    RobotState,
    Workpiece,
)
from permutations import permutation_survey


def run_transport(sim, start, target):
    for name, params in sim.registry.transport_calls(start, target):
        sim.apply_functionality(name, params)


def test_standard_start(sim, registry):
    wp = sim.sole_workpiece()
    assert wp.location == "storage_module"
    assert wp.in_inventory
    assert wp.material == "steel"
    assert wp.features == []
    robot = sim.state.robot
    assert robot.position == "storage_module"
    assert not robot.docked
    assert robot.carrying is None
    assert sim.state.version == 0


def test_standard_start_rejects_unknown_material(registry):
    with pytest.raises(ValueError, match="unknown material"):
        PlantSim.standard_start(registry, material="granite")


def test_canonical_transport_moves_workpiece(sim):
    sim.apply_skill("S1", "wp1")
    run_transport(sim, "storage_module", "cnc_module")
    wp = sim.sole_workpiece()
    assert wp.location == "cnc_module"
    assert not wp.in_inventory
    robot = sim.state.robot
    assert robot.position == "cnc_module"
    assert robot.docked
    assert robot.carrying is None


def test_load_draws_from_inventory_when_handoff_clear(sim):
    # no S1 first: the storage station fetches from inventory itself
    run_transport(sim, "storage_module", "painting_module")
    assert sim.sole_workpiece().location == "painting_module"


def test_version_increments_per_successful_call(sim):
    v0 = sim.state.version
    v1 = sim.apply_functionality("move_dock", {"target_module": "storage_module"})
    assert v1 == v0 + 1
    v2 = sim.apply_skill("S1", "wp1")
    assert v2 == v1 + 1


def test_fault_leaves_state_and_version_unchanged(sim):
    before = copy.deepcopy(sim.state)
    with pytest.raises(PlantFault, match="undock: robot not docked"):
        sim.apply_functionality("undock")
    assert sim.state.to_dict() == before.to_dict()
    assert sim.state.version == before.version


def test_move_dock_requires_target(sim):
    with pytest.raises(PlantFault, match="missing parameter target_module"):
        sim.apply_functionality("move_dock", {})


def test_move_dock_unknown_module(sim):
    with pytest.raises(PlantFault, match="unknown module"):
        sim.apply_functionality("move_dock", {"target_module": "dock_9"})


def test_move_dock_redock_same_module_is_noop(sim):
    sim.apply_functionality("move_dock", {"target_module": "cnc_module"})
    sim.apply_functionality("move_dock", {"target_module": "cnc_module"})
    assert sim.state.robot.docked
    assert sim.state.robot.position == "cnc_module"


def test_move_dock_elsewhere_while_docked_faults(sim):
    sim.apply_functionality("move_dock", {"target_module": "cnc_module"})
    with pytest.raises(PlantFault, match="move_dock: robot docked"):
        sim.apply_functionality("move_dock", {"target_module": "laser_module"})


def test_load_requires_dock(sim):
    with pytest.raises(PlantFault, match="load: robot not docked"):
        sim.apply_functionality("load")


def test_load_requires_workpiece_present(sim):
    sim.apply_functionality("move_dock", {"target_module": "cnc_module"})
    with pytest.raises(PlantFault, match="load: no workpiece at cnc_module"):
        sim.apply_functionality("load")


def test_load_twice_faults(sim):
    sim.apply_functionality("move_dock", {"target_module": "storage_module"})
    sim.apply_functionality("load")
    with pytest.raises(PlantFault, match="already carrying"):
        sim.apply_functionality("load")


def test_unload_requires_cargo(sim):
    sim.apply_functionality("move_dock", {"target_module": "storage_module"})
    with pytest.raises(PlantFault, match="unload: robot not carrying"):
        sim.apply_functionality("unload")


def test_unload_blocked_by_occupied_handoff(registry):
    sim = PlantSim.standard_start(registry, in_inventory=False)
    blocker = PlantSim.standard_start(
        registry, workpiece_id="wp2", location="cnc_module", in_inventory=False
    )
    sim.state.workpieces["wp2"] = blocker.state.workpieces["wp2"]
    run_transport_prefix = registry.transport_calls("storage_module", "cnc_module")[:-1]
    for name, params in run_transport_prefix:
        sim.apply_functionality(name, params)
    with pytest.raises(PlantFault, match="hand-off point occupied"):
        sim.apply_functionality("unload")


def test_undock_order_of_checks(sim):
    # not docked wins over not carrying
    with pytest.raises(PlantFault, match="undock: robot not docked"):
        sim.apply_functionality("undock")
    sim.apply_functionality("move_dock", {"target_module": "storage_module"})
    with pytest.raises(PlantFault, match="undock: robot not carrying"):
        sim.apply_functionality("undock")


def test_unknown_functionality(sim):
    with pytest.raises(PlantFault, match="unknown functionality"):
        sim.apply_functionality("teleport")
    with pytest.raises(PlantFault, match="unknown functionality"):
        sim.apply_functionality("_fn_load")


def test_skill_applies_feature_once(sim):
    sim.apply_skill("S1", "wp1")
    run_transport(sim, "storage_module", "cnc_module")
    sim.apply_skill("M1", "wp1")
    sim.apply_skill("M1", "wp1")
    assert sim.sole_workpiece().feature_kinds() == ["drilled"]


def test_skill_records_detail(sim):
    sim.apply_skill("S1", "wp1")
    run_transport(sim, "storage_module", "painting_module")
    sim.apply_skill("P2", "wp1", detail="backside customer logo")
    (feat,) = sim.sole_workpiece().features
    assert feat.kind == "paint_pattern"
    assert feat.detail == "backside customer logo"


def test_skill_requires_workpiece_at_host(sim):
    sim.apply_skill("S1", "wp1")
    with pytest.raises(PlantFault, match="workpiece not at"):
        sim.apply_skill("M1", "wp1")


def test_skill_rejects_workpiece_on_robot(sim):
    sim.apply_functionality("move_dock", {"target_module": "storage_module"})
    sim.apply_functionality("load")
    with pytest.raises(PlantFault, match="on the transport robot"):
        sim.apply_skill("S2", "wp1")


def test_production_skill_rejects_inventory_workpiece(registry):
    # a shelved workpiece must be retrieved before any station works on it
    sim = PlantSim.standard_start(registry, location="cnc_module")
    with pytest.raises(PlantFault, match="M1: workpiece is in storage inventory"):
        sim.apply_skill("M1", "wp1")


def test_transport_skill_not_directly_applicable(sim):
    with pytest.raises(PlantFault, match="transport skills execute via operator"):
        sim.apply_skill("T1", "wp1")


def test_storage_skills_idempotent(sim):
    sim.apply_skill("S1", "wp1")
    sim.apply_skill("S1", "wp1")
    assert not sim.sole_workpiece().in_inventory
    sim.apply_skill("S2", "wp1")
    sim.apply_skill("S2", "wp1")
    assert sim.sole_workpiece().in_inventory


def test_unknown_skill_and_workpiece(sim):
    with pytest.raises(PlantFault, match="unknown skill"):
        sim.apply_skill("Z9", "wp1")
    with pytest.raises(PlantFault, match="unknown workpiece"):
        sim.apply_skill("S1", "wp7")


def test_clone_is_independent(sim):
    twin = sim.clone()
    twin.apply_skill("S1", "wp1")
    assert sim.sole_workpiece().in_inventory
    assert not twin.sole_workpiece().in_inventory
    assert twin.registry is sim.registry

    # the clone's features, robot and version change; the original's do not
    run_transport(twin, "storage_module", "cnc_module")
    twin.apply_skill("M1", "wp1")
    assert sim.sole_workpiece().features == []
    assert sim.sole_workpiece().location == "storage_module"
    assert (sim.state.robot.position, sim.state.robot.docked) == ("storage_module", False)
    assert sim.state.version == 0
    assert twin.state.version == 7

    # and the other way round: the original changes, its clone does not
    other = twin.clone()
    twin.apply_skill("M2", "wp1")
    run_transport(twin, "cnc_module", "storage_module")
    assert other.sole_workpiece().feature_kinds() == ["drilled"]
    assert other.sole_workpiece().location == "cnc_module"
    assert (other.state.robot.position, other.state.robot.docked) == ("cnc_module", True)
    assert other.state.version == 7
    other.apply_skill("M3", "wp1")
    assert len(twin.sole_workpiece().features) == 2
    assert twin.state.version == 13


def test_snapshot_shapes(sim):
    snap = sim.snapshot()
    assert set(snap) == {"workpieces", "robot", "version"}
    mod = sim.module_snapshot("storage_module")
    assert mod["module"] == "storage_module"
    assert "wp1" in mod["workpieces"]
    assert mod["robot_docked_here"] is False
    empty = sim.module_snapshot("laser_module")
    assert empty["workpieces"] == {}


@pytest.mark.parametrize("count", [0, 2])
def test_sole_workpiece_needs_exactly_one(sim, count):
    if count == 0:
        sim.state.workpieces.clear()
    else:
        sim.state.workpieces["wp2"] = Workpiece("wp2", "wood", location="storage_module", in_inventory=True)
    with pytest.raises(PlantFault, match=f"^expected exactly one workpiece, found {count}$"):
        sim.sole_workpiece()


def test_identity_is_sole_surviving_permutation(registry):
    survivors = permutation_survey(registry, "storage_module", "painting_module")
    assert survivors == [0]


@pytest.mark.parametrize("target", ["inspection_module", "cnc_module", "laser_module"])
def test_identity_survives_for_other_targets(registry, target):
    survivors = permutation_survey(registry, "storage_module", target)
    assert survivors == [0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["move_dock", "load", "unload", "undock"]), min_size=1, max_size=6))
def test_random_functionality_soup_never_corrupts(names):
    """Any call mix either succeeds or faults; faults leave state intact."""
    from plantagents import bundled_catalog

    sim = PlantSim.standard_start(bundled_catalog())
    for name in names:
        params = {"target_module": "cnc_module"} if name == "move_dock" else {}
        before = sim.state.to_dict()
        try:
            sim.apply_functionality(name, params)
        except PlantFault:
            assert sim.state.to_dict() == before
        else:
            assert sim.state.version == before["version"] + 1
    wp = sim.sole_workpiece()
    locations = {m.id for m in sim.registry.modules} | {ON_ROBOT}
    assert wp.location in locations


_REGISTRY = bundled_catalog()
_MODULES = [m.id for m in _REGISTRY.modules]
_START_STATES = st.builds(
    lambda position, docked, carrying, location, in_inventory: PlantSim(
        _REGISTRY,
        PlantState({"wp1": Workpiece("wp1", "steel", location=location, in_inventory=in_inventory)},
                   RobotState(position, docked, carrying)),
    ),
    position=st.sampled_from([None, *_MODULES]),
    docked=st.booleans(),
    carrying=st.sampled_from([None, "wp1"]),
    location=st.sampled_from([ON_ROBOT, *_MODULES]),
    in_inventory=st.booleans(),
)
_CALLS = st.one_of(
    st.tuples(st.just("move_dock"), st.fixed_dictionaries({"target_module": st.sampled_from([*_MODULES, "foundry"])})),
    st.tuples(st.sampled_from(["move_dock", "load", "undock", "unload", "fly"]), st.just({})),
)


def _outcome(sim, run):
    try:
        result = run(sim)
    except PlantFault as exc:
        result = exc.reason
    return result, sim.state.to_dict()


@settings(max_examples=300, deadline=None)
@given(_START_STATES, st.lists(_CALLS, max_size=8))
def test_batched_functionalities_equal_separate_calls(sim, calls):
    """One batch returns and leaves what the same calls made one by one
    do, up to and including the first fault.  Each single call adds one to
    the version or faults with the state untouched."""

    def one_by_one(plant):
        version = plant.state.version
        for name, params in calls:
            before = plant.state.to_dict()
            try:
                version = plant.apply_functionality(name, params)
            except PlantFault:
                assert plant.state.to_dict() == before
                raise
            assert version == before["version"] + 1
        return version

    batched = _outcome(sim.clone(), lambda plant: plant.apply_functionalities(calls))
    assert batched == _outcome(sim.clone(), one_by_one)
