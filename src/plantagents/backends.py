"""Text-completion backends behind one interface.

Three interchangeable implementations: replay (recorded completions keyed
by prompt hash), oracle (deterministic planner that answers in the same
output grammar the worked examples use), and remote (OpenAI-compatible
text-completions endpoint).
"""

from __future__ import annotations

import json
import os
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

from .catalog import CheckedRecord, Registry
from .jsonread import checked, decode_json, each, get, items, read_json
from .parsing import ParseError
from .planner import PlanningError, oracle_plan_skills
from .prompts import PromptError, fill_transport_output, parse_transport_demand
from .tasks import TaskSpec, find_task_spec

DEFAULT_TIMEOUT_SECONDS = 30.0
# The longest timeout a socket takes: its nanoseconds must fit in 64 bits.
MAX_TIMEOUT_SECONDS = 9e9
MAX_TOKENS = 1024  # sent with every remote completion request

ENV_ENDPOINT = "LLM_ENDPOINT_URL"
ENV_API_KEY = "LLM_API_KEY"
ENV_MODEL = "LLM_MODEL"
ENV_TIMEOUT = "LLM_TIMEOUT_SECONDS"


class BackendError(Exception):
    """A completion could not be produced."""


class ReplayMissError(BackendError):
    """No recorded completion matches the prompt."""


class RemoteError(BackendError):
    """The remote completions endpoint failed or answered garbage."""


class OracleError(BackendError):
    """The oracle cannot solve the prompted task."""


class _CompletionRequestFields(NamedTuple):
    prompt: str
    temperature: float = 0.0


class CompletionRequest(CheckedRecord, _CompletionRequestFields):
    __slots__ = ()

    def _check(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must not be empty")
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature out of range: {self.temperature}")


class CompletionResult(NamedTuple):
    text: str
    backend_id: str
    latency_seconds: float


class CompletionBackend(ABC):
    backend_id: str = "abstract"

    @abstractmethod
    def complete(self, request: CompletionRequest) -> CompletionResult:
        """Produce a completion or raise a BackendError subclass."""

    def _result(self, text: str, started: float) -> CompletionResult:
        return CompletionResult(
            text=text,
            backend_id=self.backend_id,
            latency_seconds=time.perf_counter() - started,
        )


def prompt_hash(prompt: str) -> str:
    """Content hash used as the replay corpus key.

    Hashing the full prompt means any change to the prompt template
    deliberately invalidates stale recordings.
    """
    import hashlib  # loaded on first use, like `urllib` in RemoteBackend.complete

    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _read_record(raw: dict) -> tuple[str, str]:
    return get(raw, "prompt_hash"), get(raw, "completion_text")


def _read_records(raw: list | dict) -> dict[str, str]:
    """{prompt hash: completion} of a replay corpus: a list of records, or an object that holds them at `records`."""
    return dict(each(raw, _read_record) if type(raw) is list else items(raw, "records", _read_record, default=()))


class ReplayBackend(CompletionBackend):
    """Replays recorded completions; misses are errors, never guesses."""

    backend_id = "replay"

    def __init__(self, records: dict[str, str] | None = None) -> None:
        self._records = dict(records or {})

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        raw = read_json(path, "replay corpus")
        return cls(checked(raw, (list, dict), _read_records, BackendError, "replay corpus"))

    def record(self, prompt: str, completion_text: str) -> None:
        self._records[prompt_hash(prompt)] = completion_text

    def save(self, path: str | Path, prompts: dict[str, str] | None = None) -> None:
        """Write the corpus; pass {hash: prompt_text} to embed prompts."""
        prompts = prompts or {}
        rows = []
        for key, completion in sorted(self._records.items()):
            row = {"prompt_hash": key, "completion_text": completion}
            if key in prompts:
                row["prompt_text"] = prompts[key]
            rows.append(row)
        Path(path).write_text(json.dumps({"records": rows}, indent=2), "utf-8")

    def __len__(self) -> int:
        return len(self._records)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        started = time.perf_counter()
        key = prompt_hash(request.prompt)
        if key not in self._records:
            raise ReplayMissError(f"replay miss: no completion recorded for hash {key[:12]}")
        return self._result(self._records[key], started)


class OracleBackend(CompletionBackend):
    """Answers prompts by deterministic planning, in example-format text.

    Doubles as the ground truth for the minimality metric: the skill plans
    it emits are shortest by construction.
    """

    backend_id = "oracle"

    def __init__(self, registry: Registry, task_specs: list[TaskSpec]) -> None:
        self.registry = registry
        # Where two specs share an instruction, the first one is planned.
        self._specs = list(task_specs)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        started = time.perf_counter()
        input_text = extract_prompt_input(request.prompt)
        try:
            start, target = parse_transport_demand(self.registry, input_text)
        except PromptError:
            text = self._manager_text(input_text)
        else:
            text = fill_transport_output(self.registry, start, target)
        return self._result(text, started)

    def _manager_text(self, input_text: str) -> str:
        spec = find_task_spec(self._specs, input_text)
        if spec is None:
            raise OracleError(f"no task specification matches the input {input_text!r}")
        try:
            plan = oracle_plan_skills(self.registry, spec)
        except PlanningError as exc:
            raise OracleError(str(exc)) from exc
        return format_manager_completion(self.registry, plan)


def format_manager_completion(registry: Registry, plan: list[str]) -> str:
    """Render a skill plan in the output grammar of the worked examples."""
    sequence = "{%s}" % " – ".join(f"({code})" for code in plan)
    reasons = " ".join(
        f"({code}) {registry.skill(code).description}." for code in plan
    )
    return f"{sequence} Explanation: {reasons}"


def extract_prompt_input(prompt: str) -> str:
    """The text of the final ``Input: {...}`` line before the output cue."""
    anchor = prompt.rfind("Input: {")
    if anchor < 0 or not prompt.rstrip().endswith("Output:"):
        raise ParseError("prompt does not end with an Input/Output cue")
    start = anchor + len("Input: {")
    end = prompt.rfind("}")
    if end <= start:
        raise ParseError("unterminated prompt input braces")
    return prompt[start:end]


class RemoteBackend(CompletionBackend):
    """OpenAI-compatible text-completions client.

    Each completion is one POST on a new connection.  Proxy variables in
    the environment are honoured, and https endpoints are verified against
    the system's CA store.
    """

    backend_id = "remote"

    def __init__(
        self,
        endpoint_url: str,
        model: str,
        api_key: str | None = None,
        timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        if urlsplit(endpoint_url).scheme not in ("http", "https"):
            raise BackendError(f"remote backend needs an http:// or https:// endpoint URL, got {endpoint_url!r}")
        if not model:
            raise BackendError("remote backend needs a model name")
        if not 0 < timeout_seconds <= MAX_TIMEOUT_SECONDS:
            raise BackendError(
                f"timeout must be a number of seconds above 0 and at most {MAX_TIMEOUT_SECONDS:g},"
                f" got {timeout_seconds!r}"
            )
        self.endpoint_url = endpoint_url
        self.model = model
        self.api_key = api_key
        self.timeout_seconds = timeout_seconds

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "RemoteBackend":
        env = environ if environ is not None else os.environ
        endpoint = env.get(ENV_ENDPOINT, "")
        if not endpoint:
            raise BackendError(f"{ENV_ENDPOINT} is not set")
        model = env.get(ENV_MODEL, "")
        if not model:
            raise BackendError(f"{ENV_MODEL} is not set")
        timeout_raw = env.get(ENV_TIMEOUT, "")
        try:
            timeout = float(timeout_raw) if timeout_raw else DEFAULT_TIMEOUT_SECONDS
        except ValueError:
            raise BackendError(f"{ENV_TIMEOUT} is not a number: {timeout_raw!r}") from None
        return cls(
            endpoint_url=endpoint,
            model=model,
            api_key=env.get(ENV_API_KEY) or None,
            timeout_seconds=timeout,
        )

    def complete(self, request: CompletionRequest) -> CompletionResult:
        # Loaded on first use: `urllib.request` brings in `email` and `ssl`.
        import http.client
        import urllib.error
        import urllib.request

        from .service import MAX_BODY_BYTES

        started = time.perf_counter()
        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        http_request = urllib.request.Request(
            self.endpoint_url, json.dumps(payload).encode("utf-8"), headers, method="POST"
        )
        try:
            # A new opener reads the proxy variables as they are now;
            # `urlopen` would keep those of its first call.
            with urllib.request.build_opener().open(http_request, timeout=self.timeout_seconds) as response:
                # `length` is the reply's Content-Length, or None when it has none.
                if response.length is not None and response.length > MAX_BODY_BYTES:
                    raise RemoteError(f"completion response is over {MAX_BODY_BYTES} bytes")
                raw = response.read(MAX_BODY_BYTES + 1)
            if len(raw) > MAX_BODY_BYTES:
                raise RemoteError(f"completion response is over {MAX_BODY_BYTES} bytes")
        except urllib.error.HTTPError as exc:  # any status but 2xx
            exc.close()
            raise RemoteError(f"completion endpoint returned {exc.code}") from None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            # A connect timeout arrives wrapped in a URLError, a read timeout bare.
            if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
                raise RemoteError(
                    f"completion request timed out after {self.timeout_seconds}s"
                ) from exc
            raise RemoteError(f"completion request failed: {exc}") from exc
        try:
            body = decode_json(raw)
        except ValueError as exc:
            raise RemoteError(f"malformed completion response: {exc}") from exc
        texts = checked(body, dict, lambda b: items(b, "choices", lambda c: get(c, "text")), RemoteError,
                        "completion response")
        if not texts or not texts[0]:
            raise RemoteError("completion response carries no text")
        return self._result(texts[0], started)
