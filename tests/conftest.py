import os
from pathlib import Path

import pytest

import plantagents
from plantagents import PlantSim, bundled_catalog, bundled_task_spec, bundled_task_specs

# Child interpreters the tests start (`python -m plantagents ...`) import the
# same package as the suite, also when it is not installed.
_PACKAGE_ROOT = str(Path(plantagents.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def registry():
    return bundled_catalog()


@pytest.fixture(scope="session")
def task_specs():
    return bundled_task_specs()


@pytest.fixture
def drilled_spec():
    return bundled_task_spec("drilled_sheet")


@pytest.fixture
def lasered_spec():
    return bundled_task_spec("lasered_nameplate")


@pytest.fixture
def returned_spec():
    return bundled_task_spec("returned_nameplate")


@pytest.fixture
def sim(registry):
    return PlantSim.standard_start(registry)
