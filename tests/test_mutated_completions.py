"""Mutated agent completions through `run_task` over an in-process plant.

The completions are the oracle's for each bundled task, with steps dropped,
swapped or duplicated, and, in operator completions, with unregistered or
off-plant URLs put in, in the plural and the singular spelling of a
functionality path.  Whatever the agents answer, both trace invariants hold
and the plant is called on catalog endpoints only.
"""

import re
from urllib.parse import urlsplit

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plantagents import LocalPlant, OracleBackend, PlantSim, bundled_catalog, run_task
from plantagents.backends import CompletionBackend
from plantagents.parsing import FunctionStep, ParseError, parse_function_steps
from plantagents.tasks import bundled_task_specs

REGISTRY = bundled_catalog()
SPECS = bundled_task_specs()
KNOWN = REGISTRY.known_endpoints()

_PLANT = urlsplit(min(KNOWN))
PLANT = f"{_PLANT.scheme}://{_PLANT.netloc}"
BAD_URLS = [
    url
    for segment in ("functionalities", "functionality")
    for url in (
        f"{PLANT}/robotino_7/{segment}/levitate",  # no such functionality
        f"{PLANT}/cnc_module/{segment}/load",  # a module without the robot
        f"{PLANT}/robotino_9/{segment}/load",  # no such module
        f"{PLANT}/robotino_7/{segment}/load/",
        f"{PLANT}/robotino_7/{segment}/move_dock?target_module=cnc_module",
        f"http://plant.example:{_PLANT.port}/robotino_7/{segment}/load",  # another host
        f"{PLANT}1/robotino_7/{segment}/load",  # another port
        f"https://{_PLANT.netloc}/robotino_7/{segment}/unload",  # another scheme
    )
]
INSERTED_SENTENCES = [
    ("move_dock", "Move the transport robot to the cnc module and dock it"),
    ("load", "Load the workpiece onto the transport robot"),
    ("unload", "Unload the workpiece from the transport robot"),
]


def mutated(data, items: list, make_bad=None) -> list:
    """`items` after up to four edits drawn from `data`: drop, swap or
    duplicate an item, or with `make_bad`, insert a bad item or make one
    bad."""
    items = list(items)
    edits = ["drop", "swap", "duplicate"] + (["insert", "spoil"] if make_bad else [])
    for _ in range(data.draw(st.integers(0, 4))):
        edit = data.draw(st.sampled_from(edits))
        if edit == "insert":
            items.insert(data.draw(st.integers(0, len(items))), make_bad(None))
            continue
        if not items:
            continue
        i, j = (data.draw(st.integers(0, len(items) - 1)) for _ in range(2))
        if edit == "drop":
            del items[i]
        elif edit == "swap":
            items[i], items[j] = items[j], items[i]
        elif edit == "duplicate":
            items.insert(j, items[i])
        else:
            items[i] = make_bad(items[i])
    return items


class MutatingBackend(CompletionBackend):
    """The oracle's completions, each mutated by draws from `data`."""

    backend_id = "mutated"

    def __init__(self, data) -> None:
        self.oracle = OracleBackend(REGISTRY, SPECS)
        self.data = data

    def complete(self, request):
        result = self.oracle.complete(request)
        try:
            steps = parse_function_steps(result.text)
        except ParseError:  # a manager completion
            if not self.data.draw(st.booleans()):
                return result  # most mutated plans break the grammar, so keep half to reach the operator
            sequence, rest = re.fullmatch(r"\{(.*?)\}(.*)", result.text, re.DOTALL).groups()
            codes = mutated(self.data, re.findall(r"\((\w+)\)", sequence))
            return result._replace(text="{%s}%s" % (" – ".join(f"({code})" for code in codes), rest))
        steps = mutated(self.data, steps, self._bad_step)
        text = "\n".join(
            f'({n}) {step.description}. Call the functionality "{step.action}" using the URL "{step.url}".'
            for n, step in enumerate(steps, start=1)
        )
        return result._replace(text=text)

    def _bad_step(self, step: FunctionStep | None) -> FunctionStep:
        url = self.data.draw(st.sampled_from(BAD_URLS))
        if step is not None:
            return step._replace(url=url)
        action, sentence = self.data.draw(st.sampled_from(INSERTED_SENTENCES))
        return FunctionStep(step=0, description=sentence, action=action, url=url)


class RecordingPlant(LocalPlant):
    """An in-process plant that records the URL of each call it gets."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.calls: list[str] = []

    def call(self, url, body):
        self.calls.append(url)
        return super().call(url, body)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.sampled_from(SPECS), data=st.data())
def test_mutated_completions_keep_the_trace_invariants(spec, data):
    sim = PlantSim.standard_start(REGISTRY, material=spec.material, location=spec.initial_location)
    plant = RecordingPlant(sim)
    trace = run_task(spec.instruction, MutatingBackend(data), REGISTRY, plant, spec)

    ok = [record for record in trace.records if record.status == "ok"]
    if trace.outcome == "completed":
        assert ok == trace.records
        assert trace.abort_reason is None and trace.final_state is not None
    else:
        assert trace.outcome == "aborted"
        assert trace.records[:-1] == ok and trace.records[-1].status in ("fault", "error")
        assert trace.abort_reason == trace.records[-1].reason
    assert set(plant.calls) <= KNOWN
    assert {record.endpoint for record in ok} <= KNOWN
    # Every ok record is one change of the plant, and no other call changed it.
    assert sim.state.version == len(ok)
