"""What the benchmark relies on in the package.

The tracer rebinds package entry points by name; each name must resolve,
or a traced run silently loses that span.  The output checks replay the
oracle plan through the validation simulator; a bundled task run must
pass them, or every benchmark job would count as failed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from plantagents import OracleBackend, PlantSim, run_task
from plantagents.service import LocalPlant

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
CHECKS = TRACING.with_name("checks.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, None, attr) for module, attr, _ in tracing.FUNCTIONS]
    targets += [(module, cls, attr) for module, cls, attr, _ in tracing.METHODS]
    unresolved = []
    for module_name, class_name, attr in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(".".join(filter(None, (module_name, class_name, attr))))
    assert len(targets) > 0
    assert unresolved == []


@pytest.mark.parametrize("spec_index", [0, 1, 2])
def test_bundled_task_run_passes_the_job_check(registry, task_specs, spec_index):
    module_spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(checks)
    spec = task_specs[spec_index]
    sim = PlantSim.standard_start(registry, material=spec.material, location=spec.initial_location)
    trace = run_task(spec.instruction, OracleBackend(registry, task_specs), registry, LocalPlant(sim))
    assert checks.check_job(trace.to_dict(), spec, registry) == []
