"""Exercises every subcommand through main(argv), plus one real process."""

import argparse
import errno
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from importlib import resources

import pytest
import requests

from plantagents import (
    TaskError,
    bundled_corpus_path,
    bundled_task_specs,
    fill_transport_output,
    format_manager_completion,
    load_corpus,
    load_task_specs,
    oracle_plan_skills,
    parse_function_steps,
    steps_to_json,
)
from plantagents.cli import _COMMANDS, _build_parser, main
from plantagents.parsing import FunctionStep


def feed(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


@pytest.fixture
def task_file(tmp_path):
    path = tmp_path / "tasks.json"
    payload = [spec.to_dict() for spec in bundled_task_specs()]
    path.write_text(json.dumps(payload), "utf-8")
    return path


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "plantagents 0.1.0"


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _outcome(capsys, call):
    """(exit code, stdout, stderr) of `call`, whether it returns or exits."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


PARSER_ARGVS = [
    [],
    ["-h"],
    ["--version"],
    ["frobnicate"],
    *([name, "-h"] for name in _COMMANDS),
    ["run-task", "--task", "x"],
    ["render-prompt", "--agent", "boss", "--task", "x"],
    ["run-task", "--backend", "oracle", "--task", "x", "extra"],
    ["serve", "--port", "x"],
    ["validate", "--task-spec", "a", "--task-id", "b"],
    ["run-task", "--back", "nope", "--task", "x"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_parser_with_every_subcommand(capsys, argv):
    """`main` builds only the subparser its first word names; what it prints
    and how it exits stay those of the parser with all of them."""
    full = _outcome(capsys, lambda: _build_parser().parse_args(argv))
    assert full[0] in (0, 2)
    assert _outcome(capsys, lambda: main(argv)) == full


def test_a_run_builds_only_its_own_subparser(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = bundled_task_specs()[0]
    argv = ["run-task", "--backend", "oracle", "--task", spec.instruction, "--trace-out", str(tmp_path / "t.json")]
    assert main(argv) == 0
    assert built == ["plantagents", "plantagents run-task"]


def test_main_without_argv_parses_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["plantagents", "render-prompt", "--agent", "manager", "--task", "x"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("Role and goal: ")


@pytest.mark.parametrize("port", ["99999", "65536", "-1"])
def test_serve_refuses_a_port_out_of_range(capsys, port):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--port", port])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --port: port must be in 0-65535, got {port}\n")


def test_serve_on_a_busy_port_is_an_error(capsys):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        assert main(["serve", "--port", str(listener.getsockname()[1])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: [Errno {errno.EADDRINUSE}] ")


def test_render_prompt_manager(capsys):
    rc = main(["render-prompt", "--agent", "manager", "--task", "produce a widget"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("Role and goal: ")
    assert "Input: {produce a widget}\nOutput:" in out
    assert out.endswith("Output:\n")


def test_render_prompt_operator_defaults_to_robot(capsys):
    rc = main([
        "render-prompt",
        "--agent",
        "operator",
        "--task",
        "(T1) Transport the workpiece from the storage module to the cnc module.",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"move_dock"' in out
    assert "robotino_7" in out


def test_parse_skills(monkeypatch, capsys):
    feed(monkeypatch, "{(S1) – (T1) – (S2)} Explanation: retrieve, carry, return.")
    rc = main(["parse", "--kind", "skills"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["steps"] == ["S1", "T1", "S2"]
    assert body["explanation_lines"] == ["retrieve, carry, return."]


def test_parse_steps(registry, monkeypatch, capsys):
    text = fill_transport_output(registry, "storage_module", "cnc_module")
    feed(monkeypatch, text)
    rc = main(["parse", "--kind", "steps"])
    assert rc == 0
    steps = json.loads(capsys.readouterr().out)
    assert [s["action"] for s in steps] == ["move_dock", "load", "undock", "move_dock", "unload"]
    assert all(set(s) == {"step", "description", "action", "url"} for s in steps)


def test_parse_failure_goes_to_stderr(monkeypatch, capsys):
    feed(monkeypatch, "nothing to see here")
    rc = main(["parse", "--kind", "skills"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_validate_plan_text(monkeypatch, capsys):
    feed(monkeypatch, "{(S1) – (T1) – (P2) – (T1) – (I3) – (T1) – (S2)}")
    rc = main(["validate", "--task-id", "returned_nameplate"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parsed"] is True
    assert report["grammar_ok"] is True
    assert report["executable"] is True
    assert report["satisfies_task"] is True
    assert report["minimal"] is True


def test_validate_task_spec_file(tmp_path, monkeypatch, capsys):
    spec = bundled_task_specs()[0]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(spec.to_dict()), "utf-8")
    feed(monkeypatch, "{(S1) – (S2)}")
    rc = main(["validate", "--task-spec", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["satisfies_task"] is False
    assert "drilled" in report["missing"]


def test_validate_function_steps_array(registry, monkeypatch, capsys):
    text = fill_transport_output(registry, "storage_module", "cnc_module")
    steps = parse_function_steps(text)
    feed(monkeypatch, steps_to_json(steps))
    rc = main(["validate", "--task-id", "drilled_sheet"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body == {"executable": True, "fault": None}


def test_validate_function_steps_fault(registry, monkeypatch, capsys):
    text = fill_transport_output(registry, "storage_module", "cnc_module")
    steps = list(parse_function_steps(text))
    double_load = steps[:2] + [
        FunctionStep(step=3, description=steps[1].description, action="load", url=steps[1].url)
    ]
    feed(monkeypatch, steps_to_json(double_load))
    rc = main(["validate", "--task-id", "drilled_sheet"])
    assert rc == 1
    body = json.loads(capsys.readouterr().out)
    assert body["executable"] is False
    assert "already carrying" in body["fault"]


def test_validate_function_steps_foreign_url(registry, monkeypatch, capsys):
    """A step array is judged the way run-task dispatches it: a step whose
    URL the catalog does not register is refused, not executed."""
    text = fill_transport_output(registry, "storage_module", "cnc_module")
    steps = [
        FunctionStep(s.step, s.description, s.action, s.url.replace("129.69.102.129", "evil.example"))
        for s in parse_function_steps(text)
    ]
    feed(monkeypatch, steps_to_json(steps))
    rc = main(["validate", "--task-id", "drilled_sheet"])
    assert rc == 1
    body = json.loads(capsys.readouterr().out)
    assert body["executable"] is False
    assert body["fault"] == f"unregistered endpoint: {steps[0].url}"


def test_validate_empty_task_spec_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "none.json"
    path.write_text("[]", "utf-8")
    feed(monkeypatch, "{(S1) – (S2)}")
    rc = main(["validate", "--task-spec", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} holds no task specification\n"


def _bundled_catalog_with(**changes):
    """The bundled catalog's JSON with top-level keys replaced."""
    data = json.loads(resources.files("plantagents.data").joinpath("catalog.json").read_text("utf-8"))
    return {**data, **changes}


def _skills_as_number():
    data = _bundled_catalog_with()
    data["modules"][0]["skills"] = 5
    return data


@pytest.mark.parametrize(
    "catalog",
    [{"modules": 1}, _bundled_catalog_with(modules=[1]), _skills_as_number()],
    ids=["modules-number", "module-number", "skills-number"],
)
def test_catalog_of_wrong_json_types_is_an_error(tmp_path, capsys, catalog):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog), "utf-8")
    rc = main(["render-prompt", "--agent", "manager", "--task", "x", "--catalog", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: catalog entry of the wrong shape: TypeError")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--task-spec"],
        ["run-task", "--backend", "oracle", "--task", "x", "--task-spec"],
        ["collect", "--n", "1", "--backend", "oracle", "--out", "unused.json", "--tasks"],
    ],
    ids=["validate", "run-task", "collect"],
)
def test_task_file_of_wrong_json_types_is_an_error(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "tasks.json"
    path.write_text("[1]", "utf-8")
    feed(monkeypatch, "{(S1) – (S2)}")
    monkeypatch.chdir(tmp_path)
    assert main(argv + [str(path)]) == 1
    assert capsys.readouterr().err == "error: task record must be a JSON object, got int\n"


_SPEC = bundled_task_specs()[0].to_dict()
_NOT_A_SAMPLE = "a corpus sample must be a JSON object with a completion_text string"


@pytest.mark.parametrize(
    "corpus, message",
    [
        ([1], _NOT_A_SAMPLE),
        ([{"task_spec": 1, "completion_text": "x"}], "task record must be a JSON object, got int"),
        ([{"task_spec": _SPEC}], _NOT_A_SAMPLE),
        ([{"task_spec": _SPEC, "completion_text": 5}], _NOT_A_SAMPLE),
    ],
    ids=["sample-number", "task-spec-number", "no-completion", "completion-number"],
)
def test_corpus_of_wrong_json_types_is_an_error(tmp_path, capsys, corpus, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus), "utf-8")
    assert main(["evaluate", "--corpus", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_NOT_A_LIST = "replay corpus must hold a list of records, got int"


@pytest.mark.parametrize(
    "replay, message",
    [
        (5, _NOT_A_LIST),
        ({"records": 5}, _NOT_A_LIST),
        ([{"prompt_hash": 1, "completion_text": "x"}], None),
        ([{"prompt_hash": "h", "completion_text": 5}], None),
    ],
    ids=["file-number", "records-number", "hash-number", "completion-number"],
)
def test_replay_file_of_wrong_json_types_is_an_error(tmp_path, capsys, replay, message):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(replay), "utf-8")
    message = message or f"malformed replay record: {replay[0]!r}"
    assert main(["run-task", "--backend", "replay", "--task", "x", "--replay-file", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Each leaf of a task or corpus record is replaced by each of these.
LEAF_VALUES = [None, 0, 1.5, "", [], [1], {}, {"a": 1}, True]


def _leaf_paths(value, path=()):
    """The key path of every leaf of a JSON value: a scalar or an empty
    container."""
    if isinstance(value, (dict, list)) and value:
        keys = value if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield from _leaf_paths(value[key], path + (key,))
    else:
        yield path


def _with_leaf(value, path, leaf):
    copy = json.loads(json.dumps(value))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = leaf
    return copy


@pytest.mark.parametrize("spec_index", [0, 1, 2])
def test_task_file_with_any_leaf_replaced(tmp_path, monkeypatch, capsys, registry, task_specs, spec_index):
    """A task record loads or raises TaskError, and `validate` on what
    loads ends in a report or `error: ...`, never a traceback."""
    spec = task_specs[spec_index]
    completion = format_manager_completion(registry, oracle_plan_skills(registry, spec))
    path = tmp_path / "task.json"
    for leaf_path in _leaf_paths(spec.to_dict()):
        for leaf in LEAF_VALUES:
            path.write_text(json.dumps(_with_leaf(spec.to_dict(), leaf_path, leaf)), "utf-8")
            try:
                load_task_specs(path)
            except TaskError:
                pass
            feed(monkeypatch, completion)
            assert main(["validate", "--task-spec", str(path)]) in (0, 1), (leaf_path, leaf)
    capsys.readouterr()


def test_corpus_sample_with_any_leaf_replaced(tmp_path, capsys):
    """A corpus sample loads or raises ValueError (TaskError among them),
    and `evaluate` ends in a score or `error: ...`, never a traceback."""
    sample = json.loads(bundled_corpus_path().read_text("utf-8"))["samples"][0]
    path = tmp_path / "corpus.json"
    for leaf_path in _leaf_paths(sample):
        for leaf in LEAF_VALUES:
            path.write_text(json.dumps([_with_leaf(sample, leaf_path, leaf)]), "utf-8")
            try:
                load_corpus(path)
            except ValueError:
                pass
            assert main(["evaluate", "--corpus", str(path)]) in (0, 1), (leaf_path, leaf)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["render-prompt", "--agent", "manager", "--task", "x", "--catalog"],
        ["validate", "--task-spec"],
        ["collect", "--n", "1", "--backend", "oracle", "--out", "unused.json", "--tasks"],
        ["evaluate", "--corpus"],
        ["run-task", "--backend", "replay", "--task", "x", "--replay-file"],
    ],
    ids=["catalog", "task-spec", "tasks", "corpus", "replay-file"],
)
def test_file_flag_naming_a_directory_is_an_error(tmp_path, monkeypatch, capsys, argv):
    feed(monkeypatch, "{(S1) – (S2)}")
    monkeypatch.chdir(tmp_path)
    assert main(argv + [str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")


def test_task_spec_file_wins_over_a_bundled_task(tmp_path, capsys, registry, drilled_spec):
    """A --task-spec spec with a bundled task's instruction is the one the
    oracle plans and the run is judged by."""
    milled = {**drilled_spec.to_dict(), "goal_features": [{"kind": "milled", "detail": None}]}
    path = tmp_path / "task.json"
    path.write_text(json.dumps(milled), "utf-8")
    rc = main(["run-task", "--backend", "oracle", "--task", drilled_spec.instruction, "--task-spec", str(path)])
    assert rc == 0
    trace = json.loads(capsys.readouterr().out)
    milling = registry.feature_provider("milled")[1].code
    drilling = registry.feature_provider("drilled")[1].code
    assert milling in trace["skill_plan"] and drilling not in trace["skill_plan"]


@pytest.mark.parametrize("step", ["1e400", "NaN"])
def test_validate_refuses_a_step_number_no_int_holds(monkeypatch, capsys, step):
    feed(monkeypatch, '[{"step": %s, "description": "d", "action": "a", "url": "u"}]' % step)
    rc = main(["validate", "--task-id", "drilled_sheet"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed step record: {'step': ")
    assert "Traceback" not in captured.err


def test_validate_function_steps_need_move_dock(monkeypatch, capsys):
    steps = [{"step": 1, "description": "Load the workpiece.", "action": "load", "url": "http://x/y/functionalities/load"}]
    feed(monkeypatch, json.dumps(steps))
    rc = main(["validate", "--task-id", "drilled_sheet"])
    assert rc == 1
    assert "cannot locate a move_dock step" in capsys.readouterr().err


def test_run_task_oracle_end_to_end(tmp_path, capsys):
    spec = bundled_task_specs()[0]
    trace_path = tmp_path / "trace.json"
    rc = main([
        "run-task",
        "--backend",
        "oracle",
        "--task",
        spec.instruction,
        "--trace-out",
        str(trace_path),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert f"trace written to {trace_path}" in captured.out
    assert "outcome: completed" in captured.err
    trace = json.loads(trace_path.read_text("utf-8"))
    assert trace["outcome"] == "completed"
    assert all(r["status"] == "ok" for r in trace["records"])


def test_run_task_traces_are_stable_across_hash_seeds(tmp_path):
    """The trace of each bundled task, with the plant's port normalised,
    does not depend on the interpreter's hash randomization."""
    child = (
        "import sys\n"
        "from plantagents import bundled_task_specs\n"
        "from plantagents.cli import main\n"
        "for i, spec in enumerate(bundled_task_specs()):\n"
        "    out = f'{sys.argv[1]}/{i}.json'\n"
        "    assert main(['run-task', '--backend', 'oracle', '--task', spec.instruction, '--trace-out', out]) == 0\n"
    )
    runs = set()
    for seed in ("0", "1", "4242"):
        out = tmp_path / seed
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-B", "-c", child, str(out)],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": os.environ["PYTHONPATH"]},
        )
        assert proc.returncode == 0, proc.stderr
        traces = [path.read_text("utf-8") for path in sorted(out.iterdir())]
        runs.add(tuple(re.sub(r"127\.0\.0\.1:\d+", "127.0.0.1:PORT", trace) for trace in traces))
    assert len(runs) == 1
    assert len(runs.pop()) == len(bundled_task_specs())


def test_run_task_prints_trace_without_out_file(capsys):
    spec = bundled_task_specs()[2]
    rc = main(["run-task", "--backend", "oracle", "--task", spec.instruction])
    assert rc == 0
    captured = capsys.readouterr()
    trace = json.loads(captured.out)
    assert trace["task_text"] == spec.instruction
    assert trace["outcome"] == "completed"


def test_run_task_aborted_exits_nonzero(tmp_path, capsys):
    replay = tmp_path / "empty.json"
    replay.write_text(json.dumps({"records": []}), "utf-8")
    rc = main([
        "run-task",
        "--backend",
        "replay",
        "--replay-file",
        str(replay),
        "--task",
        bundled_task_specs()[0].instruction,
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "outcome: aborted" in captured.err
    trace = json.loads(captured.out)
    assert trace["abort_reason"].startswith("completion failed: ")


def test_run_task_with_task_spec_file(tmp_path, capsys):
    """--task-spec hands a task the bundled set lacks to the oracle, and its
    goal detail to the skill call that makes the feature."""
    detail = "serial number 0042"
    spec_path = tmp_path / "task.json"
    spec_path.write_text(json.dumps({
        "instruction": "engrave a wood nameplate with its serial number",
        "material": "wood",
        "initial_location": "storage_module",
        "goal_features": [{"kind": "laser_pattern", "detail": detail}],
        "required_checks": [{"kind": "quality_tested"}],
    }), "utf-8")
    rc = main([
        "run-task",
        "--backend",
        "oracle",
        "--task",
        "engrave a wood nameplate with its serial number",
        "--task-spec",
        str(spec_path),
    ])
    assert rc == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["outcome"] == "completed"
    (record,) = [r for r in trace["records"] if r["request"].get("detail") is not None]
    assert record["kind"] == "skill"
    assert record["request"]["detail"] == detail
    (workpiece,) = trace["final_state"]["workpieces"].values()
    assert {"kind": "laser_pattern", "detail": detail} in workpiece["features"]


def test_run_task_replay_requires_file(capsys):
    rc = main(["run-task", "--backend", "replay", "--task", "anything"])
    assert rc == 1
    assert "error: backend=replay needs --replay-file" in capsys.readouterr().err


def test_collect_with_oracle(task_file, tmp_path, capsys):
    out = tmp_path / "collected.json"
    rc = main([
        "collect",
        "--tasks",
        str(task_file),
        "--n",
        "2",
        "--backend",
        "oracle",
        "--out",
        str(out),
    ])
    assert rc == 0
    assert f"wrote 6 samples to {out}" in capsys.readouterr().out
    body = json.loads(out.read_text("utf-8"))
    assert len(body["samples"]) == 6


def test_evaluate_bundled_corpus(capsys, tmp_path):
    report_path = tmp_path / "reports.json"
    rc = main([
        "evaluate",
        "--corpus",
        str(bundled_corpus_path()),
        "--report",
        str(report_path),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    metrics = json.loads(captured.out)
    assert metrics == {
        "samples": 50,
        "executable_fraction": 0.96,
        "correct_fraction": 0.88,
        "minimal_fraction": 0.06,
    }
    reports = json.loads(report_path.read_text("utf-8"))
    assert len(reports) == 50
    assert "per-sample reports written" in captured.err


def test_evaluate_missing_corpus(capsys, tmp_path):
    rc = main(["evaluate", "--corpus", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "error: corpus file not found" in capsys.readouterr().err


def test_import_leaves_requests_unloaded():
    """The package runs on the standard library alone."""
    code = "import sys, plantagents.cli; print('requests' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "False\n"


def test_import_loads_no_http_client_email_or_ssl():
    """`import plantagents.cli` leaves what only `RemoteBackend` and the
    replay key use to their first call, and loads neither `dataclasses`
    (with `inspect`) nor `importlib.resources`.  Measured against the
    modules the bare interpreter holds, since `site` may have loaded some
    already."""
    code = "import sys; bare = set(sys.modules); import plantagents.cli; print(*sorted(set(sys.modules) - bare))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "plantagents.cli" in added
    unwanted = {"http.server", "http.client", "email", "ssl", "urllib.request", "urllib.error", "hashlib",
                "dataclasses", "inspect", "importlib.resources"}
    assert sorted(name for name in added if name in unwanted or name.startswith("email.")) == []
    done = subprocess.run([sys.executable, "-m", "plantagents", "--version"], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "plantagents 0.1.0\n")


def test_serve_process_smoke():
    with subprocess.Popen(
        [sys.executable, "-m", "plantagents", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("plant service listening on http://127.0.0.1:")
            base = line.rsplit(" ", 1)[-1]
            state = requests.get(f"{base}/plant/state", timeout=5).json()
            assert state["version"] == 0
            r = requests.post(
                f"{base}/storage_module/skills/S1", json={"workpiece_id": "wp1"}, timeout=5
            )
            assert r.status_code == 200
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                rc = proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
    assert rc == 0
