"""Generated task, corpus, replay and step-array files through their loaders
and through the CLI.

Each example is one of four files with one value replaced: the bundled task
file, the bundled corpus_50, a replay corpus of the oracle's answers to the
bundled tasks' manager prompts, and the step array of one transport.
Whatever the value, the loader gives its records or raises its own error
class, and nothing else; a value of another JSON type where the file takes a
string (or a step number) is refused with a message that starts with that
value's JSON path.  Each subcommand that reads the file exits 0 or 1, and
prints the loader's message as `error: ...` where the loader refuses it.
"""

import contextlib
import io
import json
import sys
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsontrees import JSON, NOT_NULL_OR_STRING, NOT_STRING, TEXT_VALUES, json_path, positions, replaced, value_at
from plantagents import (
    BackendError,
    ParseError,
    ReplayBackend,
    TaskError,
    bundled_catalog,
    bundled_corpus_path,
    bundled_task_specs,
    build_manager_prompt,
    fill_transport_output,
    format_manager_completion,
    load_corpus,
    load_task_specs,
    oracle_plan_skills,
    parse_function_steps,
    prompt_hash,
    steps_from_json,
    steps_to_json,
)
from plantagents.cli import main

REGISTRY = bundled_catalog()
SPECS = bundled_task_specs()
ANSWERS = [format_manager_completion(REGISTRY, oracle_plan_skills(REGISTRY, spec)) for spec in SPECS]
STEPS = json.loads(steps_to_json(parse_function_steps(fill_transport_output(REGISTRY, "storage_module", "cnc_module"))))


# name: (file content, loader error class, keys whose string may be null)
FILES = {
    "tasks": (json.loads(resources.files("plantagents.data").joinpath("tasks.json").read_text("utf-8")), TaskError,
              {"detail"}),
    "corpus": (json.loads(bundled_corpus_path().read_text("utf-8")), ValueError, {"detail"}),
    "replay": ({"records": [{"prompt_hash": prompt_hash(build_manager_prompt(REGISTRY, spec.instruction)),
                             "completion_text": answer} for spec, answer in zip(SPECS, ANSWERS)]}, BackendError, set()),
    "steps": (STEPS, ParseError, set()),
}
LEAVES = [(name, keys) for name, (data, _, _) in FILES.items() for keys in positions(data)
          if isinstance(value_at(data, keys), (str, int))]
ANYWHERE = [(name, keys) for name, (data, _, _) in FILES.items() for keys in positions(data)]
NOT_INTEGER = st.booleans() | st.floats() | st.none() | TEXT_VALUES | st.lists(JSON, max_size=2)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_fuzz")


def _load(name: str, value, workdir):
    """What the loader of file `name` makes of `value`, read from a file but for the step array."""
    if name == "steps":
        return steps_from_json(json.dumps(value))
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(value), "utf-8")
    return {"tasks": load_task_specs, "corpus": load_corpus, "replay": ReplayBackend.from_file}[name](path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_typed_leaf_of_another_json_type_is_refused_with_its_json_path(workdir, data):
    name, keys = data.draw(st.sampled_from(LEAVES), label="leaf")
    original, error, nullable = FILES[name]
    if isinstance(value_at(original, keys), int):
        value, expected = data.draw(NOT_INTEGER, label="value"), "integer"
    else:
        value, expected = data.draw(NOT_NULL_OR_STRING if keys[-1] in nullable else NOT_STRING, label="value"), "string"
    path = json_path(keys)
    with pytest.raises(error) as refused:
        _load(name, replaced(original, keys, value), workdir)
    assert str(refused.value).startswith(f"{path}: expected {expected}, got "), (path, str(refused.value))


@settings(max_examples=300, deadline=None)
@given(position=st.sampled_from(ANYWHERE), value=JSON)
def test_any_json_value_anywhere_loads_or_is_the_loaders_error(workdir, position, value):
    name, keys = position
    original, error, _ = FILES[name]
    try:
        _load(name, replaced(original, keys, value), workdir)
    except error:
        pass


# name: (arguments before the file, standard input)
COMMANDS = [
    ("tasks", ["validate", "--task-spec"], ANSWERS[0]),
    ("tasks", ["collect", "--n", "1", "--backend", "oracle", "--out", "{out}", "--tasks"], ""),
    ("corpus", ["evaluate", "--corpus"], ""),
    ("replay", ["run-task", "--backend", "replay", "--task", SPECS[0].instruction, "--replay-file"], ""),
    ("steps", ["validate", "--task-id", SPECS[0].id], None),
]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(COMMANDS), position=st.data(), value=JSON)
def test_each_subcommand_on_a_generated_file_exits_0_or_1_with_the_loaders_message(workdir, command, position, value):
    name, argv, stdin = command
    original, error, _ = FILES[name]
    keys = position.draw(st.sampled_from([keys for n, keys in ANYWHERE if n == name]), label="keys")
    content = replaced(original, keys, value)
    try:
        _load(name, content, workdir)
        refusal = None
    except error as exc:
        refusal = f"error: {exc}\n"
    argv = [arg.format(out=workdir / "out.json") for arg in argv]
    if stdin is None:  # standard input is a step array only where it starts with '['
        stdin = json.dumps(content)
        refusal = refusal if stdin.startswith("[") else None
    else:
        argv.append(str(workdir / f"{name}.json"))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if refusal is not None:
        assert (rc, err.getvalue()) == (1, refusal)
