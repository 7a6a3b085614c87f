"""Offline metrics over recorded completions, and the bundled corpus."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import plantagents
from plantagents import validation
from plantagents import (
    EvalMetrics,
    EvalSample,
    OracleBackend,
    bundled_corpus_path,
    collect_corpus,
    evaluate_corpus,
    evaluate_sample,
    load_corpus,
    save_corpus,
)
from plantagents.evaluation import evaluate_corpus_detailed
from plantagents.validation import validate_plan


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(bundled_corpus_path())


def test_bundled_corpus_loads(corpus):
    assert len(corpus) == 50
    assert all(isinstance(s, EvalSample) for s in corpus)
    instructions = {s.spec.instruction for s in corpus}
    assert len(instructions) == 3


def test_bundled_corpus_metrics(registry, corpus):
    metrics = evaluate_corpus(registry, corpus)
    assert metrics.samples == 50
    assert metrics.executable_fraction == 0.96
    assert metrics.correct_fraction == 0.88
    assert metrics.minimal_fraction == 0.06


def test_bundled_corpus_failure_flavours(registry, corpus):
    _, reports = evaluate_corpus_detailed(registry, corpus)
    unparsed = [r for r in reports if not r.parsed]
    ungrammatical = [r for r in reports if r.parsed and not r.grammar_ok]
    assert len(unparsed) == 1
    assert len(ungrammatical) == 1
    # grammar-valid implies executable here: the closure held over the corpus
    for report in reports:
        if report.grammar_ok:
            assert report.executable is True
    wrong = [r for r in reports if r.executable and not r.satisfies_task]
    assert len(wrong) == 4
    for report in wrong:
        assert report.missing


def _first_failing_stage(report):
    checks = (
        ("parse_failed", report.parsed),
        ("grammar_failed", report.grammar_ok),
        ("not_executable", report.executable),
        ("not_satisfied", report.satisfies_task),
        ("not_minimal", report.minimal),
    )
    return next((stage for stage, passed in checks if not passed), "minimal")


def test_bundled_corpus_stage_mix(registry, corpus):
    _, reports = evaluate_corpus_detailed(registry, corpus)
    assert Counter(_first_failing_stage(r) for r in reports) == {
        "not_minimal": 41,
        "not_satisfied": 4,
        "minimal": 3,
        "parse_failed": 1,
        "grammar_failed": 1,
    }


# SHA-256 of `json.dumps` of the bundled corpus's reports, in corpus order.
CORPUS_50_REPORTS_DIGEST = "3206b988a14a17d36ebb4884af9ccc0d36132f680af37fc339201defd4d83d38"


def test_corpus_50_reports_are_pinned(registry, corpus):
    """Every field of every report, not only the three fractions: a changed
    plan, violation or missing-feature text fails here."""
    _, reports = evaluate_corpus_detailed(registry, corpus)
    digest = hashlib.sha256(json.dumps([r.to_dict() for r in reports]).encode()).hexdigest()
    assert digest == CORPUS_50_REPORTS_DIGEST


def test_oracle_planned_once_per_task(registry, corpus, monkeypatch):
    """corpus_50 holds 3 tasks, so the oracle search runs 3 times, and the
    reports are those of judging each sample alone."""
    alone = [validate_plan(registry, s.completion_text, s.spec).to_dict() for s in corpus]
    calls = []
    search = validation.oracle_plan_skills

    def counting(registry, spec):
        calls.append(spec)
        return search(registry, spec)

    monkeypatch.setattr(validation, "oracle_plan_skills", counting)
    _, reports = evaluate_corpus_detailed(registry, corpus)
    assert len(calls) == 3
    assert [r.to_dict() for r in reports] == alone


def test_unplannable_task_is_planned_only_when_reached(registry, drilled_spec):
    """No plan exists from the CNC module; samples that fail earlier never
    ask for one, so the corpus scores without raising."""
    spec = drilled_spec._replace(initial_location="cnc_module")
    samples = [
        EvalSample(spec=spec, completion_text="I cannot help with that."),
        EvalSample(spec=spec, completion_text="{S1 - S2}"),
    ]
    metrics, reports = evaluate_corpus_detailed(registry, samples)
    assert (metrics.executable_fraction, metrics.correct_fraction, metrics.minimal_fraction) == (0, 0, 0)
    assert [r.parsed for r in reports] == [False, True]
    assert reports[1].executable is False


def test_evaluate_report_stable_across_hash_seeds(tmp_path):
    """The evaluate report must not depend on the interpreter's hash
    randomization."""
    # The child must import the same package as this process, installed or
    # not, and, like it, leave no bytecode in the source tree (-B).
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(plantagents.__file__)))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    reports = set()
    for seed in ("0", "1", "424242"):
        report = tmp_path / f"report-{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "plantagents", "evaluate",
             "--corpus", str(bundled_corpus_path()), "--report", str(report)],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        reports.add(report.read_bytes())
    assert len(reports) == 1


def test_metrics_nest():
    EvalMetrics(samples=4, executable_fraction=0.75, correct_fraction=0.5, minimal_fraction=0.25)
    with pytest.raises(ValueError, match="must nest"):
        EvalMetrics(samples=4, executable_fraction=0.5, correct_fraction=0.75, minimal_fraction=0.0)
    with pytest.raises(ValueError, match="out of range"):
        EvalMetrics(samples=4, executable_fraction=1.5, correct_fraction=0.5, minimal_fraction=0.0)


def test_empty_corpus_rejected(registry):
    with pytest.raises(ValueError, match="empty corpus: nothing to evaluate"):
        evaluate_corpus(registry, [])


def test_evaluate_sample_minimal(registry, drilled_spec):
    text = "{(S1) – (T1) – (I1) – (T1) – (M1) – (T1) – (I3) – (T1) – (S2)}"
    report = evaluate_sample(registry, EvalSample(spec=drilled_spec, completion_text=text))
    assert report.parsed and report.grammar_ok and report.executable
    assert report.satisfies_task and report.minimal
    assert report.plan_length == report.oracle_length == 9


def test_evaluate_sample_padded_is_not_minimal(registry, drilled_spec):
    text = "{(S1) – (T1) – (I1) – (T1) – (M1) – (T1) – (T1) – (I3) – (T1) – (S2)}"
    report = evaluate_sample(registry, EvalSample(spec=drilled_spec, completion_text=text))
    assert report.satisfies_task is True
    assert report.minimal is False
    assert report.plan_length == 10


def test_corpus_roundtrip(tmp_path, corpus):
    path = tmp_path / "corpus.json"
    save_corpus(path, corpus[:5])
    again = load_corpus(path)
    assert again == corpus[:5]
    raw = json.loads(path.read_text("utf-8"))
    assert set(raw) == {"samples"}


def test_load_corpus_accepts_bare_list(tmp_path, corpus):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps([s.to_dict() for s in corpus[:2]]), "utf-8")
    assert load_corpus(path) == corpus[:2]


@pytest.mark.parametrize("raw, message", [
    (5, "corpus: expected list or object, got number"),
    ({"samples": 5}, "samples: expected list, got number"),
], ids=["5", "raw1"])
def test_load_corpus_rejects_a_non_list(tmp_path, raw, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as refused:
        load_corpus(path)
    assert str(refused.value) == message


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="corpus file not found"):
        load_corpus(tmp_path / "nope.json")


def test_collect_corpus_with_oracle(registry, task_specs):
    backend = OracleBackend(registry, task_specs)
    samples = collect_corpus(registry, task_specs, backend, per_task=2)
    assert len(samples) == 6
    metrics = evaluate_corpus(registry, samples)
    assert metrics.executable_fraction == 1.0
    assert metrics.correct_fraction == 1.0
    assert metrics.minimal_fraction == 1.0


def test_collect_corpus_rejects_bad_count(registry, task_specs):
    backend = OracleBackend(registry, task_specs)
    with pytest.raises(ValueError, match="per_task must be positive"):
        collect_corpus(registry, task_specs, backend, per_task=0)
