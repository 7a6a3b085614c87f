"""Offline evaluation of recorded completions against their tasks.

Each sample pairs a task specification with one completion text.  Samples
are judged independently through the validation pipeline and summarized as
three nested fractions: executable, correct (solves the task), minimal
(no unnecessary steps).  Evaluation never calls a model, so results are
deterministic; a separate collect step populates corpora.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .backends import CompletionBackend, CompletionRequest
from .catalog import CheckedRecord, Registry
from .jsonread import checked, each, get, items, nested, read_json
from .prompts import build_manager_prompt
from .tasks import TaskSpec, read_task
from .validation import ValidationReport, validate_plan


class EvalSample(NamedTuple):
    spec: TaskSpec
    completion_text: str

    def to_dict(self) -> dict:
        return {"task_spec": self.spec.to_dict(), "completion_text": self.completion_text}


def _read_sample(raw: dict) -> EvalSample:
    return EvalSample(nested(raw, "task_spec", read_task), get(raw, "completion_text"))


class _EvalMetricsFields(NamedTuple):
    samples: int
    executable_fraction: float
    correct_fraction: float
    minimal_fraction: float


class EvalMetrics(CheckedRecord, _EvalMetricsFields):
    __slots__ = ()

    def _check(self) -> None:
        chain = (self.minimal_fraction, self.correct_fraction, self.executable_fraction)
        if not all(0.0 <= x <= 1.0 for x in chain):
            raise ValueError(f"fractions out of range: {chain}")
        if not (chain[0] <= chain[1] <= chain[2]):
            raise ValueError(f"fractions must nest (minimal <= correct <= executable): {chain}")


def evaluate_sample(
    registry: Registry,
    sample: EvalSample,
    oracle_lengths: dict[TaskSpec, int] | None = None,
) -> ValidationReport:
    return validate_plan(registry, sample.completion_text, sample.spec, oracle_lengths)


def evaluate_corpus_detailed(
    registry: Registry, samples: list[EvalSample]
) -> tuple[EvalMetrics, list[ValidationReport]]:
    if not samples:
        raise ValueError("empty corpus: nothing to evaluate")
    # Each task's oracle plan length, planned when the first of its samples
    # reaches the minimality check; samples of one task share it.
    oracle_lengths: dict[TaskSpec, int] = {}
    reports = [evaluate_sample(registry, s, oracle_lengths) for s in samples]
    n = len(samples)
    executable = sum(1 for r in reports if r.executable is True)
    correct = sum(1 for r in reports if r.satisfies_task is True)
    minimal = sum(1 for r in reports if r.minimal is True)
    metrics = EvalMetrics(
        samples=n,
        executable_fraction=executable / n,
        correct_fraction=correct / n,
        minimal_fraction=minimal / n,
    )
    return metrics, reports


def evaluate_corpus(registry: Registry, samples: list[EvalSample]) -> EvalMetrics:
    metrics, _ = evaluate_corpus_detailed(registry, samples)
    return metrics


# ---------------------------------------------------------------------------
# Corpus files

def _read_corpus(raw: list | dict) -> list[EvalSample]:
    return list(each(raw, _read_sample) if type(raw) is list else items(raw, "samples", _read_sample, default=()))


def load_corpus(path: str | Path) -> list[EvalSample]:
    """The samples of a corpus file: a list, or an object that holds them at `samples`."""
    return checked(read_json(path, "corpus file"), (list, dict), _read_corpus, ValueError, "corpus")


def save_corpus(path: str | Path, samples: list[EvalSample]) -> None:
    payload = {"samples": [s.to_dict() for s in samples]}
    Path(path).write_text(json.dumps(payload, indent=2), "utf-8")


def bundled_corpus_path() -> Path:
    return Path(__file__).parent / "data" / "corpus_50.json"


def collect_corpus(
    registry: Registry,
    specs: list[TaskSpec],
    backend: CompletionBackend,
    per_task: int,
    temperature: float = 0.0,
) -> list[EvalSample]:
    """Ask the backend for per_task completions of each task's prompt.

    Backend errors propagate: a corpus with holes would silently skew the
    metrics.
    """
    if per_task <= 0:
        raise ValueError("per_task must be positive")
    samples = []
    for spec in specs:
        prompt = build_manager_prompt(registry, spec.instruction)
        for _ in range(per_task):
            result = backend.complete(
                CompletionRequest(prompt=prompt, temperature=temperature)
            )
            samples.append(EvalSample(spec=spec, completion_text=result.text))
    return samples
