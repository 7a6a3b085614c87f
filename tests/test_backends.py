import json
import socket
import threading
from contextlib import contextmanager

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
from plantagents.orchestrator import run_task
from plantagents.plant import PlantSim
from plantagents.service import MAX_BODY_BYTES, BackgroundServer, JsonHandler, LocalPlant
from stubserver import StubCompletionsServer


def test_prompt_hash_stability():
    assert prompt_hash("abc") == prompt_hash("abc")
    assert prompt_hash("abc") != prompt_hash("abd")
    assert len(prompt_hash("abc")) == 64


def test_completion_request_validation():
    with pytest.raises(ValueError, match="temperature"):
        CompletionRequest(prompt="p", temperature=1.5)
    with pytest.raises(ValueError, match="prompt"):
        CompletionRequest(prompt="")


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
    with pytest.raises(BackendError, match=r"^\[0\]: missing required key 'prompt_hash'$"):
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
        assert request["payload"]["max_tokens"] == 1024
        assert request["headers"][b"authorization"] == b"Bearer sk-test"


def test_remote_no_auth_header_without_key():
    with StubCompletionsServer(completion_text="ok") as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        backend.complete(CompletionRequest(prompt="p"))
        assert b"authorization" not in stub.requests[0]["headers"]


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


@pytest.mark.parametrize("text, message", [
    (5, "choices[0].text: expected string, got number"),
    (None, "choices[0].text: expected string, got null"),
])
def test_remote_names_the_json_path_of_a_reply_value_of_the_wrong_type(text, message):
    with StubCompletionsServer(completion_text=text) as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        with pytest.raises(RemoteError) as refused:
            backend.complete(CompletionRequest(prompt="p"))
        assert str(refused.value) == message


class _DeepReplyHandler(JsonHandler):
    """Answers each completion request with a body nested 100 000 deep."""

    def do_POST(self):  # noqa: N802 (stdlib handler naming)
        self._read_body()
        body = b'{"choices": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        self.rfile.raw.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))


def test_remote_refuses_a_reply_nested_past_the_recursion_limit():
    with BackgroundServer(("127.0.0.1", 0), _DeepReplyHandler) as srv:
        backend = RemoteBackend(endpoint_url=f"{srv.base_url}/v1/completions", model="m")
        with pytest.raises(RemoteError, match="^malformed completion response: nested too deeply: "):
            backend.complete(CompletionRequest(prompt="p"))


@contextmanager
def _raw_reply_server(reply: bytes, hold: bool):
    """The completions URL of a server thread that answers one request on a
    raw socket with the bytes of `reply`.  With `hold` it then waits for the
    client to close the connection; without, it closes it."""

    def serve():
        conn, _ = listener.accept()
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(65536)
            head, _, body = request.partition(b"\r\n\r\n")
            length = int(next(line.split(b":")[1] for line in head.split(b"\r\n")
                              if line.lower().startswith(b"content-length:")))
            while len(body) < length:
                body += conn.recv(65536)
            try:
                conn.sendall(reply)
                while hold and conn.recv(65536):
                    pass
            except OSError:  # the client closed a reply it refused part-read
                pass

    with socket.create_server(("127.0.0.1", 0)) as listener:
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions"
        thread.join(5)


def _reply(size: int, content_length: bool) -> bytes:
    """A 200 completion reply whose body, `{"choices": [{"text": "ok"}]}` padded with spaces, has `size` bytes."""
    body = b'{"choices": [{"text": "ok"}]}'.ljust(size)
    length = b"Content-Length: %d\r\n" % size if content_length else b""
    return b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n%sConnection: close\r\n\r\n%s" % (length, body)


@pytest.mark.parametrize("content_length", [True, False], ids=["content_length", "no_content_length"])
def test_remote_takes_a_reply_of_exactly_the_cap(content_length):
    with _raw_reply_server(_reply(MAX_BODY_BYTES, content_length), hold=False) as url:
        assert RemoteBackend(endpoint_url=url, model="m").complete(CompletionRequest(prompt="p")).text == "ok"


def test_remote_refuses_a_content_length_over_the_cap_unread():
    """Only the head and 10 body bytes arrive, and the server then waits: a
    client that read on would time out instead of refusing."""
    reply = _reply(MAX_BODY_BYTES + 1, content_length=True)[:-MAX_BODY_BYTES + 9]
    with _raw_reply_server(reply, hold=True) as url:
        backend = RemoteBackend(endpoint_url=url, model="m", timeout_seconds=5)
        with pytest.raises(RemoteError) as refused:
            backend.complete(CompletionRequest(prompt="p"))
    assert str(refused.value) == f"completion response is over {MAX_BODY_BYTES} bytes"


def test_remote_stops_reading_a_reply_without_content_length_past_the_cap():
    with _raw_reply_server(_reply(MAX_BODY_BYTES + 1, content_length=False), hold=False) as url:
        with pytest.raises(RemoteError) as refused:
            RemoteBackend(endpoint_url=url, model="m").complete(CompletionRequest(prompt="p"))
    assert str(refused.value) == f"completion response is over {MAX_BODY_BYTES} bytes"


@pytest.mark.parametrize("content_length", [True, False], ids=["content_length", "no_content_length"])
def test_a_run_with_an_over_cap_completion_aborts_on_its_last_record(registry, drilled_spec, content_length):
    with _raw_reply_server(_reply(2 * MAX_BODY_BYTES, content_length), hold=False) as url:
        trace = run_task(drilled_spec.instruction, RemoteBackend(endpoint_url=url, model="m"), registry,
                         LocalPlant(PlantSim.standard_start(registry)), drilled_spec)
    reason = f"completion failed: completion response is over {MAX_BODY_BYTES} bytes"
    assert (trace.outcome, trace.abort_reason) == ("aborted", reason)
    assert [r.status == "ok" for r in trace.records] == [False]
    assert trace.records[-1].reason == reason


def test_remote_rejects_empty_completion():
    with StubCompletionsServer(completion_text="") as stub:
        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        with pytest.raises(RemoteError, match="carries no text"):
            backend.complete(CompletionRequest(prompt="p"))


@pytest.mark.parametrize(
    "body, length",
    [(b"{}", "abc"), (b"[1]", None)],
    ids=["bad_content_length", "body_not_an_object"],
)
def test_stub_malformed_request_gets_400_json(body, length, capfd):
    """A malformed request gets a 400 JSON reply, is not recorded, and the
    stub goes on answering."""
    length = str(len(body)) if length is None else length
    request = (
        f"POST /v1/completions HTTP/1.1\r\nHost: stub\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body
    with StubCompletionsServer(completion_text="ok") as stub:
        with socket.create_connection(stub.server_address[:2], timeout=5) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert b"Content-Type: application/json" in head
        assert "malformed request" in json.loads(payload)["error"]["message"]
        assert stub.requests == []

        backend = RemoteBackend(endpoint_url=stub.url, model="m")
        assert backend.complete(CompletionRequest(prompt="p")).text == "ok"
    assert capfd.readouterr().err == ""


def test_remote_connection_refused():
    backend = RemoteBackend(endpoint_url="http://127.0.0.1:9/v1/completions", model="m")
    with pytest.raises(RemoteError, match="completion request failed"):
        backend.complete(CompletionRequest(prompt="p"))


def test_remote_honours_proxy_variables(monkeypatch):
    endpoint = "http://127.0.0.1:9/v1/completions"  # nothing listens there
    with StubCompletionsServer(completion_text="ok") as proxy:
        monkeypatch.setenv("http_proxy", proxy.base_url)
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        backend = RemoteBackend(endpoint_url=endpoint, model="m")
        assert backend.complete(CompletionRequest(prompt="p")).text == "ok"
        assert [r["path"] for r in proxy.requests] == [endpoint]


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
        *(
            (
                {"LLM_ENDPOINT_URL": "http://x", "LLM_MODEL": "m", "LLM_TIMEOUT_SECONDS": value},
                "timeout must be a number of seconds above 0",
            )
            for value in ("0", "-1", "nan", "inf")
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
