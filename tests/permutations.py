"""The transport-order survey behind the "only the canonical order runs"
acceptance criterion, used by the plant and acceptance tests."""

import itertools

from plantagents.catalog import Registry
from plantagents.plant import PlantFault, PlantSim


def permutation_survey(registry: Registry, start: str, target: str) -> list[int]:
    """Indices (into the lexicographic permutations) that run fault-free.

    Each permutation of the catalog's transport calls is run
    from the standard start with the workpiece at the start module's
    hand-off point.  The expected survivor is the identity permutation.
    """
    calls = registry.transport_calls(start, target)
    survivors = []
    for idx, perm in enumerate(itertools.permutations(range(len(calls)))):
        sim = PlantSim.standard_start(registry, location=start, in_inventory=False)
        try:
            for i in perm:
                name, params = calls[i]
                sim.apply_functionality(name, params)
        except PlantFault:
            continue
        survivors.append(idx)
    return survivors
