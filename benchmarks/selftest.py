"""Self-tests of the benchmark's generators, checkers and tracer.

    python3 benchmarks/selftest.py              # from the repository root
    python3 -m pytest -q benchmarks/selftest.py

They live beside the benchmark, outside the package's test suite, so they
never gate the package's tests; they check that the benchmark itself
rejects wrong output and repeats its inputs exactly.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checkout  # noqa: E402

checkout.use_source()

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from plantagents import bundled_catalog, bundled_corpus_path, evaluate_corpus_detailed, load_corpus  # noqa: E402
from plantagents.catalog import canonical_url  # noqa: E402

_DIGEST = """
import hashlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gen
from plantagents import bundled_catalog, save_corpus
registry = bundled_catalog()
seed, path = int(sys.argv[3]), sys.argv[4]
pool = gen.job_pool(registry, seed)
jobs = json.dumps([pool[i].to_dict() for i in gen.job_sequence(len(pool), seed, 500)])
samples, labels = gen.corpus(registry, seed, 100)
save_corpus(path, samples)
with open(path, "rb") as fh:
    corpus = fh.read()
print(hashlib.sha256(jobs.encode() + corpus + json.dumps(labels).encode()).hexdigest())
"""


def _digest(seed: int, hash_seed: str) -> str:
    """Digest of a seed's job sequence, corpus file and labels, made in a
    fresh interpreter under the given PYTHONHASHSEED."""
    path = checkout.out_dir() / f"selftest-{os.getpid()}-{seed}-{hash_seed}.json"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    try:
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST, str(checkout.SRC), str(Path(__file__).resolve().parent),
             str(seed), str(path)],
            capture_output=True, text=True, check=True, env=env, timeout=120,
        )
    finally:
        path.unlink(missing_ok=True)
    return done.stdout.strip()


def test_generators_repeat_exactly_for_a_seed():
    digests = {_digest(7, hash_seed) for hash_seed in ("0", "1", "4242")}
    assert len(digests) == 1
    assert _digest(8, "0") not in digests


def test_generated_corpus_reaches_its_labels():
    registry = bundled_catalog()
    for seed in (3, 4):
        samples, labels = gen.corpus(registry, seed, 150)
        _, reports = evaluate_corpus_detailed(registry, samples)
        assert checks.check_labels(reports, labels) == []


def test_generated_corpus_is_shaped_like_corpus_50():
    registry = bundled_catalog()
    bundled = load_corpus(bundled_corpus_path())
    samples, labels = gen.corpus(registry, 3, 50)
    _, reports = evaluate_corpus_detailed(registry, bundled)
    assert Counter(labels) == Counter(checks.report_stage(r) for r in reports)
    # Its one block over the bundled tasks has corpus_50's oracle and
    # padded plans, sample for sample.
    def passing(corpus, stages):
        return sorted((s.spec.id, s.completion_text) for s, stage in zip(corpus, stages)
                      if stage in ("minimal", "not_minimal"))
    assert passing(samples, labels) == passing(bundled, [checks.report_stage(r) for r in reports])


def test_label_checker_rejects_one_wrong_label():
    registry = bundled_catalog()
    samples, labels = gen.corpus(registry, 5, 50)
    _, reports = evaluate_corpus_detailed(registry, samples)
    wrong = list(labels)
    wrong[17] = "minimal" if labels[17] != "minimal" else "not_minimal"
    problems = checks.check_labels(reports, wrong)
    assert len(problems) == 1 and problems[0].startswith("sample 17:")


def _trace(statuses: list[str], outcome: str) -> dict:
    records = [
        {"kind": "skill", "name": "S1", "endpoint": "http://127.0.0.1:1/storage_module/skills/S1",
         "status": status, "reason": None if status == "ok" else "boom"}
        for status in statuses
    ]
    return {"outcome": outcome, "abort_reason": None if outcome == "completed" else "boom", "records": records}


def test_trace_checker_accepts_well_formed_traces():
    assert checks.check_trace_invariants(_trace(["ok", "ok"], "completed")) == []
    assert checks.check_trace_invariants(_trace(["ok", "fault"], "aborted")) == []


def test_trace_checker_rejects_non_ok_record_not_last():
    assert checks.check_trace_invariants(_trace(["fault", "ok"], "aborted"))
    assert checks.check_trace_invariants(_trace(["ok", "fault", "fault"], "aborted"))
    assert checks.check_trace_invariants(_trace(["ok", "error"], "completed"))
    trace = _trace(["ok", "fault"], "aborted")
    trace["abort_reason"] = "something else"
    assert checks.check_trace_invariants(trace)


def test_job_checker_rejects_a_changed_workpiece():
    from plantagents import OracleBackend, PlantService, PlantSim, bundled_task_spec, run_task

    spec = bundled_task_spec("returned_nameplate")
    registry = bundled_catalog()
    with PlantService(PlantSim.standard_start(registry, material=spec.material), port=0) as service:
        rebased = registry.rebased(service.base_url)
        trace = run_task(spec.instruction, OracleBackend(rebased, [spec]), rebased,
                         service.base_url, task_spec=spec).to_dict()
    assert checks.check_job(trace, spec, rebased) == []

    def tampered(change) -> dict:
        copied = copy.deepcopy(trace)
        change(copied, next(iter(copied["final_state"]["workpieces"].values())))
        return copied

    assert checks.check_job(tampered(lambda t, wp: wp["features"].pop()), spec, rebased)
    assert checks.check_job(tampered(lambda t, wp: wp["features"][0].update(detail=None)), spec, rebased)
    assert checks.check_job(tampered(lambda t, wp: wp.update(in_inventory=False)), spec, rebased)
    wrong_url = tampered(lambda t, wp: t["records"][0].update(endpoint=t["records"][0]["endpoint"] + "9"))
    assert checks.check_job(wrong_url, spec, rebased)
    assert checks.check_job(wrong_url, spec, registry, paths_only=True)

    # A plant call sent to another port of the same host.
    registered_at_port_1 = registry.rebased("http://127.0.0.1:1").known_endpoints()
    elsewhere = tampered(lambda t, wp: [r.update(endpoint=r["endpoint"].replace(service.base_url, "http://127.0.0.1:1"))
                                        for r in t["records"]])
    assert all(canonical_url(r["endpoint"]) in registered_at_port_1 for r in elsewhere["records"] if r["kind"] != "agent")
    assert checks.check_job(elsewhere, spec, rebased)
    # A CLI run's plant port is not known, so only paths and host are checked.
    assert checks.check_job(elsewhere, spec, registry, paths_only=True) == []
    assert checks.check_job(tampered(lambda t, wp: [r.update(endpoint=r["endpoint"].replace("127.0.0.1", "10.0.0.1"))
                                                    for r in t["records"]]), spec, registry, paths_only=True)


class _Workload:
    items_per_op = 400

    def check(self, context, result):
        raise AssertionError("a crash is not handed to the check")


def test_a_crashing_operation_fails_all_its_items():
    measured = run.Run(_Workload(), None, tracing.LayerStats())
    measured._check(None, measured._call(lambda: 1 / 0))
    assert (measured.attempted, measured.failed) == (400, 400)
    assert "ZeroDivisionError" in measured.problems[0]


def test_corpus_scores_that_disagree_fail_the_whole_pass():
    registry = bundled_catalog()
    samples, labels = gen.corpus(registry, 5, 50)
    metrics, reports = evaluate_corpus_detailed(registry, samples)
    corpus = workloads.CorpusEval.__new__(workloads.CorpusEval)
    corpus.labels, corpus.stages = labels, Counter()
    assert workloads.CorpusEval.check(corpus, None, (metrics, reports)) == (0, [])
    wrong = dataclasses.replace(metrics, minimal_fraction=metrics.minimal_fraction + 0.02)
    failed, problems = workloads.CorpusEval.check(corpus, None, (wrong, reports))
    assert failed == 50 and len(problems) == 1


def test_self_time_subtracts_children_once():
    spans = [
        (1, "a.x", 0.0, 10.0, None, 0, True),
        (2, "b.y", 1.0, 4.0, 1, 0, True),
        (3, "b.y", 3.0, 6.0, 1, 0, True),  # overlaps its sibling, as a handler thread may
        (4, "c.z", 8.0, 12.0, 1, 0, True),  # ends after its parent
    ]
    own = tracing.self_times(spans)
    assert own == {1: 10.0 - 5.0 - 2.0, 2: 3.0, 3: 3.0, 4: 4.0}


def test_tracer_restores_every_binding():
    import plantagents
    from plantagents import cli, orchestrator, plant

    before = (orchestrator.run_task, plantagents.run_task, plant.PlantSim.clone,
              plant.PlantSim.__dict__["standard_start"], cli.json)
    tracer = tracing.Tracer()
    tracer.begin(1)
    assert orchestrator.run_task is not before[0] and plantagents.run_task is not before[1]
    plant.PlantSim.standard_start(plantagents.bundled_catalog()).clone()
    spans = tracer.end()
    after = (orchestrator.run_task, plantagents.run_task, plant.PlantSim.clone,
             plant.PlantSim.__dict__["standard_start"], cli.json)
    assert all(a is b for a, b in zip(before, after))
    assert [s[1] for s in spans] == ["catalog.load", "plant.standard_start", "plant.clone"]


def test_benchmark_json_lists_the_emitted_metrics():
    declared = json.loads((checkout.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(run.ALIASES)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}

    fake = run.Run.__new__(run.Run)
    timing = run.Timing(1.0, 1.0, 1.0)
    fake.setups, fake.untraced, fake.traced = [timing], [timing] * 12, [timing] * 12
    fake.workload = type("W", (), {"items_per_op": 1, "stages": Counter(), "tail_percentile": 95.0})()
    fake.tracer, fake.stats = tracing.Tracer(), tracing.LayerStats()
    assert {k: u for k, (_, u) in fake.end_to_end().items()} == e2e
    assert {k: u for k, (_, u) in fake.per_layer().items()} == layer


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok    {name}")
            except Exception as exc:  # noqa: BLE001 (report every failing test)
                failures += 1
                print(f"FAIL  {name}: {exc!r}")
    sys.exit(1 if failures else 0)
