"""Deterministic simulation of the modular production plant.

One transport robot with a docking state machine, module stations with a
single hand-off point each, a storage module with an inventory, and
workpieces whose feature lists grow as skills are applied.  All mutations
pass through one lock; the state version counts successful calls.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .catalog import Registry

MATERIALS = ("steel", "wood")

# Pseudo-location for a workpiece riding on the transport robot.
ON_ROBOT = "robot"


class PlantFault(Exception):
    """A functionality or skill precondition was violated.

    The plant state is left exactly as it was; the reason text names the
    operation and the violated condition.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class Feature(NamedTuple):
    kind: str
    detail: str | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}

    @classmethod
    def from_dict(cls, raw: dict) -> "Feature":
        return cls(kind=raw["kind"], detail=raw.get("detail"))


class Workpiece:
    def __init__(self, id: str, material: str, features: list[Feature] | None = None, location: str = ON_ROBOT,
                 in_inventory: bool = False) -> None:
        self.id, self.material = id, material
        # Assigned features in application order; kinds never repeat.
        self.features = [] if features is None else features
        self.location, self.in_inventory = location, in_inventory

    def feature_kinds(self) -> list[str]:
        return [f.kind for f in self.features]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "material": self.material,
            "features": [f.to_dict() for f in self.features],
            "location": self.location,
            "in_inventory": self.in_inventory,
        }


class RobotState:
    def __init__(self, position: str | None = None, docked: bool = False, carrying: str | None = None) -> None:
        self.position, self.docked, self.carrying = position, docked, carrying

    def to_dict(self) -> dict:
        return {
            "position": self.position,
            "docked": self.docked,
            "carrying": self.carrying,
        }


class PlantState:
    def __init__(self, workpieces: dict[str, Workpiece], robot: RobotState, version: int = 0) -> None:
        self.workpieces, self.robot, self.version = workpieces, robot, version

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "robot": self.robot.to_dict(),
            "workpieces": {wid: wp.to_dict() for wid, wp in self.workpieces.items()},
        }


class PlantSim:
    """The live plant: registry-aware state plus the mutation rules."""

    def __init__(self, registry: Registry, state: PlantState) -> None:
        self.registry = registry
        self.state = state
        self._lock = threading.Lock()

    # -- factories ---------------------------------------------------------

    @classmethod
    def standard_start(
        cls,
        registry: Registry,
        workpiece_id: str = "wp1",
        material: str = "steel",
        location: str | None = None,
        in_inventory: bool = True,
    ) -> "PlantSim":
        """Fresh plant: robot undocked at storage, one workpiece in storage.

        ``in_inventory=False`` places the workpiece at the hand-off point
        instead, the situation right after a retrieve skill.
        """
        if material not in MATERIALS:
            raise ValueError(f"unknown material {material!r}")
        loc = location or registry.storage_module().id
        registry.module(loc)
        wp = Workpiece(
            id=workpiece_id,
            material=material,
            location=loc,
            in_inventory=in_inventory,
        )
        robot = RobotState(position=registry.storage_module().id, docked=False)
        return cls(registry, PlantState(workpieces={wp.id: wp}, robot=robot))

    def clone(self) -> "PlantSim":
        """Independent copy sharing the registry (features are immutable)."""
        state, robot = self.state, self.state.robot
        workpieces = {
            wid: Workpiece(wp.id, wp.material, list(wp.features), wp.location, wp.in_inventory)
            for wid, wp in state.workpieces.items()
        }
        return PlantSim(
            self.registry,
            PlantState(workpieces, RobotState(robot.position, robot.docked, robot.carrying), state.version),
        )

    # -- views -------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return self.state.to_dict()

    def module_snapshot(self, module_id: str) -> dict:
        mod = self.registry.module(module_id)
        with self._lock:
            at_module = {
                wid: wp.to_dict()
                for wid, wp in self.state.workpieces.items()
                if wp.location == mod.id
            }
            robot = self.state.robot
            return {
                "version": self.state.version,
                "module": mod.id,
                "workpieces": at_module,
                "robot_docked_here": bool(robot.docked and robot.position == mod.id),
            }

    def sole_workpiece(self) -> Workpiece:
        wps = list(self.state.workpieces.values())
        if len(wps) != 1:
            raise PlantFault(f"expected exactly one workpiece, found {len(wps)}")
        return wps[0]

    # -- mutations ---------------------------------------------------------

    def apply_functionality(self, name: str, params: dict | None = None) -> int:
        """Run one transport-robot functionality; returns the new version."""
        params = params or {}
        with self._lock:
            handler = _FUNCTIONALITIES.get(name)
            if handler is None:
                raise PlantFault(f"unknown functionality: {name}")
            handler(self, params)
            self.state.version += 1
            return self.state.version

    def apply_skill(self, code: str, workpiece_id: str, detail: str | None = None) -> int:
        """Run one module skill on a workpiece; returns the new version."""
        with self._lock:
            if not self.registry.has_skill(code):
                raise PlantFault(f"unknown skill: {code}")
            host = self.registry.skill_host(code)
            skill = self.registry.skill(code)
            if host.kind == "transport":
                raise PlantFault("transport skills execute via operator agent")
            wp = self.state.workpieces.get(workpiece_id)
            if wp is None:
                raise PlantFault(f"unknown workpiece: {workpiece_id}")
            if wp.location == ON_ROBOT:
                raise PlantFault(f"{code}: workpiece is on the transport robot")
            if wp.location != host.id:
                raise PlantFault(f"workpiece not at {host.name}")

            if skill.role == "retrieve":
                # Tolerant re-retrieve: already at the hand-off point is a no-op.
                wp.in_inventory = False
            elif skill.role == "store":
                wp.in_inventory = True
            else:
                if wp.in_inventory:
                    raise PlantFault(f"{code}: workpiece is in storage inventory")
                assert skill.feature is not None
                # Re-applying a feature succeeds without duplicating it.
                if skill.feature not in wp.feature_kinds():
                    wp.features.append(Feature(kind=skill.feature, detail=detail))
            self.state.version += 1
            return self.state.version

    # -- functionality semantics -------------------------------------------
    # Preconditions are all checked before any assignment, so a raised
    # PlantFault never leaves a half-applied mutation behind.

    def _fn_move_dock(self, params: dict) -> None:
        target = params.get("target_module")
        if not target:
            raise PlantFault("move_dock: missing parameter target_module")
        if not self.registry.has_module(target):
            raise PlantFault(f"move_dock: unknown module {target!r}")
        robot = self.state.robot
        # Re-docking at the current module is tolerated as a no-op; docking
        # elsewhere requires undocking first.
        if robot.docked and robot.position != target:
            raise PlantFault("move_dock: robot docked")
        robot.position = target
        robot.docked = True

    def _fn_load(self, params: dict) -> None:
        robot = self.state.robot
        if not robot.docked:
            raise PlantFault("load: robot not docked")
        if robot.carrying is not None:
            raise PlantFault("load: robot already carrying a workpiece")
        wp = self._workpiece_at_handoff(robot.position)
        if wp is None:
            # Stations fetch from inventory when the hand-off is clear
            # (only the storage module keeps one).
            wp = self._workpiece_in_inventory(robot.position)
        if wp is None:
            raise PlantFault(f"load: no workpiece at {robot.position}")
        wp.location = ON_ROBOT
        wp.in_inventory = False
        robot.carrying = wp.id

    def _fn_unload(self, params: dict) -> None:
        robot = self.state.robot
        if not robot.docked:
            raise PlantFault("unload: robot not docked")
        if robot.carrying is None:
            raise PlantFault("unload: robot not carrying a workpiece")
        if self._workpiece_at_handoff(robot.position) is not None:
            raise PlantFault(f"unload: hand-off point occupied at {robot.position}")
        wp = self.state.workpieces[robot.carrying]
        wp.location = robot.position
        wp.in_inventory = False
        robot.carrying = None

    def _fn_undock(self, params: dict) -> None:
        robot = self.state.robot
        if not robot.docked:
            raise PlantFault("undock: robot not docked")
        # Mid-transport the robot always carries cargo; undocking empty is
        # a wasted motion the physics rejects.
        if robot.carrying is None:
            raise PlantFault("undock: robot not carrying a workpiece")
        robot.docked = False

    def _workpiece_at_handoff(self, module_id: str | None) -> Workpiece | None:
        for wp in self.state.workpieces.values():
            if wp.location == module_id and not wp.in_inventory:
                return wp
        return None

    def _workpiece_in_inventory(self, module_id: str | None) -> Workpiece | None:
        for wp in self.state.workpieces.values():
            if wp.location == module_id and wp.in_inventory:
                return wp
        return None


# The functionalities `apply_functionality` runs, by name.
_FUNCTIONALITIES = {
    "move_dock": PlantSim._fn_move_dock,
    "load": PlantSim._fn_load,
    "undock": PlantSim._fn_undock,
    "unload": PlantSim._fn_unload,
}


def transport_functionality_calls(start: str, target: str) -> list[tuple[str, dict]]:
    """The canonical five-call expansion of one transport skill."""
    return [
        ("move_dock", {"target_module": start}),
        ("load", {}),
        ("undock", {}),
        ("move_dock", {"target_module": target}),
        ("unload", {}),
    ]
