"""Golden-text tests for completion parsing.

The fixtures below are frozen copies of the worked transport example and a
manager-style completion; the parsers must keep reading them forever.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantagents.parsing import (
    FunctionStep,
    ParseError,
    is_skill_code,
    parse_function_steps,
    parse_skill_sequence,
    steps_from_json,
    steps_to_json,
)

BASE = "http://129.69.102.129:5010/robotino_7/functionality"

TRANSPORT_OUTPUT = (
    "To transport the workpiece from the storage module to the painting module,"
    " the following steps shall be executed:\n"
    '(1) Move the transport robot to the storage module and dock it. Call the functionality "move_dock"'
    f' using the URL "{BASE}/move_dock" to move the robot to the storage module and dock it.\n'
    '(2) Load the workpiece from the storage module onto the transport robot. Call the functionality "load"'
    f' using the URL "{BASE}/load" to load the workpiece onto the robot.\n'
    '(3) Undock the transport robot from the storage module. Call the functionality "undock"'
    f' using the URL "{BASE}/undock" to detach the robot from the storage module.\n'
    '(4) Move the transport robot to the painting module and dock it. Call the functionality "move_dock"'
    f' using the URL "{BASE}/move_dock" to move the robot to the painting module and dock it.\n'
    '(5) Unload the workpiece from the transport robot onto the painting module. Call the functionality "unload"'
    f' using the URL "{BASE}/unload" to unload the workpiece from the robot onto the painting module.'
)

# what the control layer must extract from the text above, key order included
TRANSPORT_STEPS_JSON = (
    '[{"step": 1, "description": "Move the transport robot to the storage module and dock it",'
    f' "action": "move_dock", "url": "{BASE}/move_dock"}},'
    ' {"step": 2, "description": "Load the workpiece from the storage module onto the transport robot",'
    f' "action": "load", "url": "{BASE}/load"}},'
    ' {"step": 3, "description": "Undock the transport robot from the storage module",'
    f' "action": "undock", "url": "{BASE}/undock"}},'
    ' {"step": 4, "description": "Move the transport robot to the painting module and dock it",'
    f' "action": "move_dock", "url": "{BASE}/move_dock"}},'
    ' {"step": 5, "description": "Unload the workpiece from the transport robot onto the painting module",'
    f' "action": "unload", "url": "{BASE}/unload"}}]'
)

MANAGER_COMPLETION = (
    "{(S1) – (T1) – (P2) – (T1) – (I3) – (T1) – (S2)}"
    " Explanation: (S1) retrieve the wood nameplate from storage module."
)


def test_golden_function_steps():
    steps = parse_function_steps(TRANSPORT_OUTPUT)
    assert [s.step for s in steps] == [1, 2, 3, 4, 5]
    assert [s.action for s in steps] == ["move_dock", "load", "undock", "move_dock", "unload"]
    assert steps[0].description == "Move the transport robot to the storage module and dock it"
    assert steps[0].url == f"{BASE}/move_dock"


def test_golden_steps_to_json_structural_equality():
    steps = parse_function_steps(TRANSPORT_OUTPUT)
    assert json.loads(steps_to_json(steps)) == json.loads(TRANSPORT_STEPS_JSON)
    # key order is part of the contract, so compare the serialized form too
    assert steps_to_json(steps) == TRANSPORT_STEPS_JSON


def test_steps_json_roundtrip():
    steps = parse_function_steps(TRANSPORT_OUTPUT)
    assert steps_from_json(steps_to_json(steps)) == steps


@pytest.mark.parametrize("field, value, message", [
    ("url", 5, "[1].url: expected string, got number"),
    ("description", None, "[1].description: expected string, got null"),
    ("action", ["load"], "[1].action: expected string, got list"),
    ("step", "one", "[1].step: expected integer, got string"),
    # A step number is a JSON integer: no boolean, numeric string or fraction is read as one.
    ("step", True, "[1].step: expected integer, got boolean"),
    ("step", False, "[1].step: expected integer, got boolean"),
    ("step", "3", "[1].step: expected integer, got string"),
    ("step", 3.7, "[1].step: expected integer, got number"),
], ids=["url-5", "description-None", "action-value2", "step-one", "step-True", "step-False", "step-3", "step-3.7"])
def test_steps_from_json_rejects_wrong_field_types(field, value, message):
    records = json.loads(steps_to_json(parse_function_steps(TRANSPORT_OUTPUT)))
    records[1][field] = value
    with pytest.raises(ParseError) as refused:
        steps_from_json(json.dumps(records))
    assert str(refused.value) == message


@pytest.mark.parametrize("step", ["1e400", "-1e400", "NaN", "Infinity"])
def test_steps_from_json_refuses_a_step_number_no_int_holds(step):
    with pytest.raises(ParseError, match=r"^\[0\]\.step: expected integer, got number$"):
        steps_from_json('[{"step": %s, "description": "d", "action": "a", "url": "u"}]' % step)


@pytest.mark.parametrize("text, message", [
    ('{"step": 1}', "steps: expected list, got object"),
    ("[5]", "[0]: expected object, got number"),
    ('[{"step": 1, "description": "d", "action": "a"}]', "[0]: missing required key 'url'"),
])
def test_steps_from_json_names_the_json_path(text, message):
    with pytest.raises(ParseError) as refused:
        steps_from_json(text)
    assert str(refused.value) == message


def test_steps_from_json_refuses_an_array_nested_past_the_recursion_limit():
    with pytest.raises(ParseError, match="^not valid JSON: nested too deeply: "):
        steps_from_json("[" * 100_000 + "]" * 100_000)


def test_steps_from_json_refuses_a_number_of_too_many_digits():
    with pytest.raises(ParseError, match="not valid JSON: "):
        steps_from_json('[{"step": %s, "description": "d", "action": "a", "url": "u"}]' % ("1" * 4301))


def test_golden_skill_sequence():
    plan = parse_skill_sequence(MANAGER_COMPLETION)
    assert plan.steps == ("S1", "T1", "P2", "T1", "I3", "T1", "S2")
    assert plan.explanation_lines == (
        "(S1) retrieve the wood nameplate from storage module.",
    )


@pytest.mark.parametrize(
    "text,expected",
    [
        ("{(S1) - (S2)}", ["S1", "S2"]),  # plain hyphen
        ("{(S1) — (S2)}", ["S1", "S2"]),  # em dash
        ("{(S1)–(S2)}", ["S1", "S2"]),  # no spaces
        ("{ (S1) }", ["S1"]),  # single step
        ("prefix {(S1) – (T1) – (S2)} suffix {(M1)}", ["S1", "T1", "S2"]),
    ],
)
def test_skill_sequence_variants(text, expected):
    assert list(parse_skill_sequence(text).steps) == expected


def test_skill_sequence_requires_braces():
    with pytest.raises(ParseError, match="no brace-delimited skill sequence"):
        parse_skill_sequence("(S1) - (S2)")


def test_skill_sequence_rejects_junk_tokens():
    with pytest.raises(ParseError, match="not a skill code"):
        parse_skill_sequence("{(S1) - (hole) - (S2)}")


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=6) | st.from_regex(r"[A-Za-z]+\d+", fullmatch=True) | st.sampled_from(
    ["M²", "é1", "M1\n", " M1", "(M1)", "M-1", "AB12", "1M"]))
def test_a_skill_code_is_what_a_plan_reads_back_as_itself(token):
    """The catalog's rule for a skill code: `{<code>}` parses as that one code."""
    try:
        read_back = parse_skill_sequence(f"{{{token}}}").steps == (token,)
    except ParseError:
        read_back = False
    assert is_skill_code(token) == read_back


def test_skill_sequence_rejects_empty_braces():
    with pytest.raises(ParseError, match="empty skill sequence"):
        parse_skill_sequence("{}")


def test_function_steps_require_step_lines():
    with pytest.raises(ParseError, match="no functionality steps found"):
        parse_function_steps("To transport the workpiece, do nothing.")


def test_function_steps_detect_gap():
    gappy = TRANSPORT_OUTPUT.replace(
        '(2) Load the workpiece from the storage module onto the transport robot. Call the functionality "load"',
        '(7) Load the workpiece from the storage module onto the transport robot. Call the functionality "load"',
    )
    with pytest.raises(ParseError, match="missing step 2"):
        parse_function_steps(gappy)


def test_function_steps_reject_unordered_numbering():
    lines = TRANSPORT_OUTPUT.split("\n")
    shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2], lines[5], lines[4]])
    with pytest.raises(ParseError, match="missing step 1"):
        parse_function_steps(shuffled)


@pytest.mark.parametrize("digits", [4301, 5000])
def test_function_steps_refuse_a_step_number_of_too_many_digits(digits):
    """`int` refuses a string of more than 4300 digits; the parser says so
    as a ParseError, like any other completion it cannot read."""
    huge = TRANSPORT_OUTPUT.replace("(1) Move", "(%s) Move" % ("1" * digits))
    with pytest.raises(ParseError, match="a step number has too many digits"):
        parse_function_steps(huge)


def test_function_step_is_frozen():
    step = parse_function_steps(TRANSPORT_OUTPUT)[0]
    assert isinstance(step, FunctionStep)
    with pytest.raises(AttributeError):
        step.action = "undock"
