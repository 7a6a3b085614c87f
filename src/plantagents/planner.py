"""Deterministic shortest-plan search over the plant's skills.

Finds the shortest grammar-conforming skill sequence that achieves a
task's goal features and required checks: retrieve, visit the providing
modules in a legal check/production order with transports in between,
store.  Ties are broken by catalog skill order, so the result is a pure
function of registry and task.
"""

from __future__ import annotations

import heapq

from .catalog import CatalogError, Registry
from .tasks import TaskSpec


class PlanningError(Exception):
    """No grammar-conforming plan can satisfy the task."""


def oracle_plan_skills(registry: Registry, spec: TaskSpec) -> list[str]:
    """Shortest skill sequence satisfying the task, deterministically.

    The sequence starts with the storage retrieve skill, ends with the
    store skill, inserts one transport skill per module change, and orders
    features so that required pre-checks precede the first goal feature
    and required post-checks follow the last one.
    """
    storage = registry.storage_module()
    if spec.initial_location != storage.id:
        raise PlanningError(
            f"no plan: workpiece must start in {storage.id}, not {spec.initial_location}"
        )

    needed_pre = frozenset(f.kind for f in spec.pre_checks())
    needed_post = frozenset(f.kind for f in spec.post_checks())
    needed_goal = frozenset(f.kind for f in spec.goal_features)
    needed = needed_pre | needed_post | needed_goal

    providers: dict[str, tuple[str, str]] = {}
    for kind in needed:
        try:
            module, skill = registry.feature_provider(kind)
        except CatalogError as exc:
            raise PlanningError(f"no plan: {exc}") from exc
        providers[kind] = (module.id, skill.code)

    retrieve = registry.storage_skill("retrieve").code
    store = registry.storage_skill("store").code
    transport = registry.transport_skill().code

    def rank(plan: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(registry.skill_rank(code) for code in plan)

    def allowed(kind: str, applied: frozenset[str]) -> bool:
        if kind in needed_pre:
            return True
        if kind in needed_goal:
            return needed_pre <= applied
        return (needed_pre | needed_goal) <= applied

    start_plan = (retrieve,)
    # Heap entries order by cost, then catalog-rank tuple: equal-length
    # plans resolve to the catalog-first alternative.
    heap: list[tuple[int, tuple[int, ...], bool, str, frozenset[str], tuple[str, ...]]] = [
        (1, rank(start_plan), False, storage.id, frozenset(), start_plan)
    ]
    seen: set[tuple[bool, str, frozenset[str]]] = set()
    while heap:
        cost, _, done, module_id, applied, plan = heapq.heappop(heap)
        if done:
            return list(plan)
        key = (done, module_id, applied)
        if key in seen:
            continue
        seen.add(key)

        if applied == needed:
            plan2 = plan if module_id == storage.id else plan + (transport,)
            plan2 = plan2 + (store,)
            heapq.heappush(
                heap, (len(plan2), rank(plan2), True, storage.id, applied, plan2)
            )
            continue

        for kind in needed - applied:
            if not allowed(kind, applied):
                continue
            host_id, code = providers[kind]
            plan2 = plan if host_id == module_id else plan + (transport,)
            plan2 = plan2 + (code,)
            heapq.heappush(
                heap,
                (len(plan2), rank(plan2), False, host_id, applied | {kind}, plan2),
            )
    raise PlanningError("no plan: search space exhausted")
