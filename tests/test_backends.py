import json

import pytest

from plantagents.backends import (
    BackendError,
    CompletionRequest,
    OracleBackend,
    OracleError,
    RemoteBackend,
    RemoteError,
    ReplayBackend,
    ReplayMissError,
    extract_prompt_input,
    format_manager_completion,
    prompt_hash,
)
from plantagents.parsing import ParseError, parse_skill_sequence
from plantagents.planner import oracle_plan_skills
from plantagents.prompts import (
    build_manager_prompt,
    build_operator_prompt,
    fill_transport_output,
    render_transport_demand,
)
from plantagents.stubserver import StubCompletionsServer


def test_prompt_hash_stability():
    assert prompt_hash("abc") == prompt_hash("abc")
    assert prompt_hash("abc") != prompt_hash("abd")
    assert len(prompt_hash("abc")) == 64


def test_completion_request_validation():
    with pytest.raises(ValueError, match="temperature"):
        CompletionRequest(prompt="p", temperature=1.5)
    with pytest.raises(ValueError, match="prompt"):
        CompletionRequest(prompt="")
    with pytest.raises(ValueError, match="max_tokens"):
        CompletionRequest(prompt="p", max_tokens=0)


def test_extract_prompt_input(registry):
    prompt = build_manager_prompt(registry, "produce a widget")
    assert extract_prompt_input(prompt) == "produce a widget"


def test_extract_prompt_input_rejects_other_text():
    with pytest.raises(ParseError):
        extract_prompt_input("just some text")


# -- replay ------------------------------------------------------------------


def test_replay_roundtrip(tmp_path):
    backend = ReplayBackend()
    backend.record("the prompt", "the completion")
    result = backend.complete(CompletionRequest(prompt="the prompt"))
    assert result.text == "the completion"
    assert result.backend_id == "replay"
    assert result.latency_seconds >= 0

    path = tmp_path / "replay.json"
    backend.save(path, prompts={prompt_hash("the prompt"): "the prompt"})
    loaded = ReplayBackend.from_file(path)
    assert len(loaded) == 1
    assert loaded.complete(CompletionRequest(prompt="the prompt")).text == "the completion"


def test_replay_miss(tmp_path):
    backend = ReplayBackend()
    with pytest.raises(ReplayMissError, match="replay miss"):
        backend.complete(CompletionRequest(prompt="never recorded"))


def test_replay_from_file_accepts_bare_list(tmp_path):
    path = tmp_path / "corpus.json"
    rows = [{"prompt_hash": prompt_hash("p"), "completion_text": "c"}]
    path.write_text(json.dumps(rows))
    backend = ReplayBackend.from_file(path)
    assert backend.complete(CompletionRequest(prompt="p")).text == "c"


def test_replay_from_file_rejects_malformed(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"hash": "x"}]))
    with pytest.raises(BackendError, match="malformed replay record"):
        ReplayBackend.from_file(path)


def test_replay_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ReplayBackend.from_file(tmp_path / "gone.json")


# -- oracle -------------------------------------------------------------------


def test_oracle_answers_manager_prompt(registry, task_specs, returned_spec):
    backend = OracleBackend(registry, task_specs)
    prompt = build_manager_prompt(registry, returned_spec.instruction)
    result = backend.complete(CompletionRequest(prompt=prompt))
    plan = parse_skill_sequence(result.text)
    assert list(plan.steps) == oracle_plan_skills(registry, returned_spec)
    assert result.backend_id == "oracle"


def test_oracle_answers_operator_prompt(registry, task_specs):
    backend = OracleBackend(registry, task_specs)
    demand = render_transport_demand(registry, "cnc_module", "laser_module")
    prompt = build_operator_prompt(registry, "robotino_7", demand)
    result = backend.complete(CompletionRequest(prompt=prompt))
    assert result.text == fill_transport_output(registry, "cnc_module", "laser_module")


def test_oracle_rejects_unknown_task(registry, task_specs):
    backend = OracleBackend(registry, task_specs)
    prompt = build_manager_prompt(registry, "produce a golden gear")
    with pytest.raises(OracleError, match="no task specification matches"):
        backend.complete(CompletionRequest(prompt=prompt))


def test_format_manager_completion_shape(registry):
    text = format_manager_completion(registry, ["S1", "T1", "S2"])
    assert text.startswith("{(S1) – (T1) – (S2)} Explanation: ")
    plan = parse_skill_sequence(text)
    assert list(plan.steps) == ["S1", "T1", "S2"]
    assert len(plan.explanation_lines) >= 1


# -- remote -------------------------------------------------------------------


def test_remote_roundtrip():
    with StubCompletionsServer(completion_text="{(S1) - (S2)}") as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="stub-model", api_key="sk-test")
        result = backend.complete(CompletionRequest(prompt="plan please", temperature=0.0))
        assert result.text == "{(S1) - (S2)}"
        assert result.backend_id == "remote"
        (request,) = stub.requests
        assert request["payload"]["model"] == "stub-model"
        assert request["payload"]["prompt"] == "plan please"
        assert request["payload"]["temperature"] == 0.0
        assert request["headers"]["Authorization"] == "Bearer sk-test"


def test_remote_no_auth_header_without_key():
    with StubCompletionsServer(completion_text="ok") as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        backend.complete(CompletionRequest(prompt="p"))
        assert "Authorization" not in stub.requests[0]["headers"]


def test_remote_http_error():
    with StubCompletionsServer(mode="error", error_status=500) as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        with pytest.raises(RemoteError, match="completion endpoint returned 500"):
            backend.complete(CompletionRequest(prompt="p"))


def test_remote_timeout():
    with StubCompletionsServer(mode="stall", stall_seconds=1.0) as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m", timeout_seconds=0.2)
        with pytest.raises(RemoteError, match="timed out after 0.2s"):
            backend.complete(CompletionRequest(prompt="p"))


def test_remote_error_makes_one_request():
    with StubCompletionsServer(mode="error") as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        with pytest.raises(RemoteError):
            backend.complete(CompletionRequest(prompt="p"))
        assert len(stub.requests) == 1


def test_remote_rejects_empty_completion():
    with StubCompletionsServer(completion_text="") as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        with pytest.raises(RemoteError, match="carries no text"):
            backend.complete(CompletionRequest(prompt="p"))


def test_remote_connection_refused():
    backend = RemoteBackend(endpoint_url="http://127.0.0.1:9/v1/completions", model="m")
    with pytest.raises(RemoteError, match="completion request failed"):
        backend.complete(CompletionRequest(prompt="p"))


def test_remote_from_env():
    env = {
        "LLM_ENDPOINT_URL": "http://example.invalid/v1/completions",
        "LLM_API_KEY": "sk-x",
        "LLM_MODEL": "m-1",
        "LLM_TIMEOUT_SECONDS": "7.5",
    }
    backend = RemoteBackend.from_env(env)
    assert backend.endpoint_url == env["LLM_ENDPOINT_URL"]
    assert backend.model == "m-1"
    assert backend.api_key == "sk-x"
    assert backend.timeout_seconds == 7.5


@pytest.mark.parametrize(
    "env,message",
    [
        ({}, "LLM_ENDPOINT_URL is not set"),
        ({"LLM_ENDPOINT_URL": "http://x"}, "LLM_MODEL is not set"),
        (
            {"LLM_ENDPOINT_URL": "http://x", "LLM_MODEL": "m", "LLM_TIMEOUT_SECONDS": "soon"},
            "LLM_TIMEOUT_SECONDS is not a number",
        ),
    ],
)
def test_remote_from_env_errors(env, message):
    with pytest.raises(BackendError, match=message):
        RemoteBackend.from_env(env)


def test_remote_constructor_validation():
    with pytest.raises(BackendError, match="endpoint URL"):
        RemoteBackend(endpoint_url="", model="m")
    with pytest.raises(BackendError, match="model name"):
        RemoteBackend(endpoint_url="http://x", model="")
