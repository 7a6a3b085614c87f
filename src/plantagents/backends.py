"""Text-completion backends behind one interface.

Three interchangeable implementations: replay (recorded completions keyed
by prompt hash), oracle (deterministic planner that answers in the same
output grammar the worked examples use), and remote (OpenAI-compatible
text-completions endpoint).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import requests

from .catalog import Registry
from .parsing import ParseError
from .planner import PlanningError, oracle_plan_skills
from .prompts import PromptError, fill_transport_output, parse_transport_demand
from .tasks import TaskSpec

DEFAULT_TIMEOUT_SECONDS = 30.0
DEFAULT_MAX_TOKENS = 1024

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


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = 0.0
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must not be empty")
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive: {self.max_tokens}")


@dataclass(frozen=True)
class CompletionResult:
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
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ReplayBackend(CompletionBackend):
    """Replays recorded completions; misses are errors, never guesses."""

    backend_id = "replay"

    def __init__(self, records: dict[str, str] | None = None) -> None:
        self._records = dict(records or {})

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"replay corpus not found: {p}")
        raw = json.loads(p.read_text("utf-8"))
        if isinstance(raw, dict):
            raw = raw.get("records", [])
        records = {}
        for item in raw:
            try:
                records[item["prompt_hash"]] = item["completion_text"]
            except (TypeError, KeyError) as exc:
                raise BackendError(f"malformed replay record: {item!r}") from exc
        return cls(records)

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
        self._by_instruction = {spec.instruction: spec for spec in task_specs}

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
        spec = self._by_instruction.get(input_text)
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
    """OpenAI-compatible text-completions client."""

    backend_id = "remote"

    def __init__(
        self,
        endpoint_url: str,
        model: str,
        api_key: str | None = None,
        timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        if not endpoint_url:
            raise BackendError("remote backend needs an endpoint URL")
        if not model:
            raise BackendError("remote backend needs a model name")
        self.endpoint_url = endpoint_url
        self.model = model
        self.api_key = api_key
        self.timeout_seconds = timeout_seconds
        self._session = requests.Session()

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
        started = time.perf_counter()
        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = self._session.post(
                self.endpoint_url,
                json=payload,
                headers=headers,
                timeout=self.timeout_seconds,
            )
        except requests.Timeout as exc:
            raise RemoteError(
                f"completion request timed out after {self.timeout_seconds}s"
            ) from exc
        except requests.RequestException as exc:
            raise RemoteError(f"completion request failed: {exc}") from exc
        if not 200 <= response.status_code < 300:
            raise RemoteError(f"completion endpoint returned {response.status_code}")
        try:
            body = response.json()
            text = body["choices"][0]["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RemoteError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise RemoteError("completion response carries no text")
        return self._result(text, started)
