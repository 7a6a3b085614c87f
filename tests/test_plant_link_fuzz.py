"""Generated JSON at both ends of the plant link.

The plant service reads any request body, or a valid body with one value
replaced, and answers 200, 400, 404 or 409 with an object; a 400 for a value
of the wrong JSON type names that value's JSON path.  A run whose plant
gives arbitrary JSON as its start or final state never raises, and its
trace keeps both trace invariants.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jsontrees import JSON, json_path, positions, replaced
from plantagents import LocalPlant, OracleBackend, PlantSim, bundled_catalog, bundled_task_specs, run_task

REGISTRY = bundled_catalog()
SPECS = bundled_task_specs()
ROBOT = REGISTRY.transport_module().id
# (path, a body the plant takes there)
CALLS = [
    ("/storage_module/skills/S1", {"workpiece_id": "wp1", "detail": "red"}),
    (f"/{ROBOT}/functionalities/move_dock", {"params": {"target_module": "cnc_module"}}),
    ("/nope", {"workpiece_id": None, "detail": None, "params": None}),
]
LEAVES = [(path, body, keys) for path, body in CALLS for keys in positions(body)]
SPEC = SPECS[0]
SNAPSHOT = PlantSim.standard_start(REGISTRY, material=SPEC.material).snapshot()


def _answers(path, body):
    status, payload = LocalPlant(PlantSim.standard_start(REGISTRY)).post(path, body)
    assert status in (200, 400, 404, 409) and isinstance(payload, dict), (status, payload)
    return status, payload


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from([path for path, _ in CALLS]), body=JSON)
def test_any_json_body_gets_a_plant_reply(path, body):
    _answers(path, body)


@settings(max_examples=300, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=JSON)
@example(leaf=LEAVES[0], value={"params": False})  # the whole body replaced: the reason names its field
def test_a_value_of_the_wrong_type_in_a_body_is_refused_with_its_json_path(leaf, value):
    """A 400 names the replaced value, or one inside it; where the whole
    body is replaced, that is the body or a field of it."""
    path, body, keys = leaf
    status, payload = _answers(path, replaced(body, keys, value))
    names = [json_path(keys)] if keys else ["request body", *(value if isinstance(value, dict) else ())]
    if status == 400:
        reason = payload["reason"]
        assert any(reason[:len(name) + 1] in (f"{name}:", f"{name}.", f"{name}[") for name in names), (keys, payload)


@settings(max_examples=300, deadline=None)
@given(final=st.booleans(), position=st.sampled_from(list(positions(SNAPSHOT))), value=JSON)
def test_a_run_on_any_state_reply_keeps_both_trace_invariants(final, position, value):
    """The start or the final state is the plant's snapshot with one value
    replaced, the whole of it included."""
    reply = replaced(SNAPSHOT, position, value)

    class Plant(LocalPlant):
        states = 0

        def state(self):
            self.states += 1
            return reply if self.states == 1 + final else super().state()

    plant = Plant(PlantSim.standard_start(REGISTRY, material=SPEC.material))
    trace = run_task(SPEC.instruction, OracleBackend(REGISTRY, SPECS), REGISTRY, plant)
    non_ok = [r for r in trace.records if r.status != "ok"]
    if trace.outcome == "completed":
        assert non_ok == [] and trace.abort_reason is None
    else:
        assert non_ok == [trace.records[-1]] and trace.abort_reason == non_ok[0].reason
    assert all(state is None or isinstance(state, dict) for state in (trace.start_state, trace.final_state))
