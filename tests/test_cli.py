"""Exercises every subcommand through main(argv), plus one real process."""

import io
import json
import signal
import subprocess
import sys
import time

import pytest
import requests

from plantagents import (
    bundled_corpus_path,
    bundled_task_specs,
    fill_transport_output,
    parse_function_steps,
    steps_to_json,
)
from plantagents.cli import main
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
