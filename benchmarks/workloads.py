"""The three workloads: set-up, one timed operation, and its check.

``set_up`` performs one timed set-up and returns its (wall, CPU) seconds;
the run calls it several times and then ``ready``.  A workload prepares
each operation outside the timed region and returns the operation as a
callable; ``check`` returns the number of the operation's items that
failed and the problems found.  The callable reaches the package through
module attributes (``orchestrator.run_task``, not a name imported here),
so the tracer's rebinding also covers the operation's entry point.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from collections import Counter

import checks
import checkout
import gen
import speed
from plantagents import backends, catalog, cli, evaluation, orchestrator, service
from plantagents.plant import PlantSim


class JobsHttp:
    """One ``run_task`` per operation against a long-lived plant service."""

    name = "jobs_http"
    item = "job"
    items_per_op = 1
    warmup = 3
    tail_percentile = 95.0  # about 700 jobs a run

    def __init__(self, seed: int) -> None:
        self.pool = gen.job_pool(catalog.bundled_catalog(), seed)
        self.sequence = gen.job_sequence(len(self.pool), seed)
        self.services: list[service.PlantService] = []
        self.stages: Counter = Counter()
        self.reference: tuple[int, int, list[str]] = (0, 0, [])

    def set_up(self) -> tuple[float, float]:
        def build():
            registry = catalog.bundled_catalog()
            plant = service.serve_plant(PlantSim.standard_start(registry))
            rebased = registry.rebased(plant.base_url)
            return plant, rebased, backends.OracleBackend(rebased, self.pool)

        wall, cpu, (plant, rebased, backend) = speed.clocked(build)
        self.services.append(plant)
        self.service, self.registry, self.backend = plant, rebased, backend
        return wall, cpu

    def ready(self) -> None:
        # Only the last set-up serves jobs; the others stop together, since
        # each stop waits out the server's poll interval.
        threads = [threading.Thread(target=s.stop) for s in self.services[:-1]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def prepare(self, i: int):
        spec = self.pool[self.sequence[i % len(self.sequence)]]
        # The plant holds one workpiece; each job starts from a fresh one.
        self.service.sim = PlantSim.standard_start(
            self.registry, material=spec.material, location=spec.initial_location
        )
        url = self.service.base_url
        return spec, lambda: orchestrator.run_task(
            spec.instruction, self.backend, self.registry, url, task_spec=spec
        )

    def check(self, spec, trace) -> tuple[int, list[str]]:
        # self.registry is rebased onto this plant's address.
        problems = checks.check_job(trace.to_dict(), spec, self.registry)
        return min(1, len(problems)), problems

    def close(self) -> None:
        self.service.stop()


class Oneshot:
    """One in-process ``plantagents run-task`` per operation."""

    name = "oneshot"
    item = "run"
    items_per_op = 1
    warmup = 1
    tail_percentile = 75.0  # about 60 runs a run

    def __init__(self, seed: int) -> None:
        self.order = gen.oneshot_order(seed)
        self.registry = catalog.bundled_catalog()
        self.trace_path = checkout.out_dir() / f"oneshot-{os.getpid()}.trace.json"
        self.stages: Counter = Counter()
        self.reference: tuple[int, int, list[str]] = (0, 0, [])

    def set_up(self) -> tuple[float, float]:
        # A CLI user pays the import on every run; the rest of the set-up
        # happens inside each operation.  A fresh interpreter times it.
        code = (
            "import sys, time; sys.path.insert(0, sys.argv[1]); "
            "w, c = time.perf_counter(), time.process_time(); import plantagents.cli; "
            "print(time.perf_counter() - w, time.process_time() - c)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(checkout.SRC)],
            capture_output=True, text=True, check=True, timeout=60, cwd=checkout.ROOT,
        )
        wall, cpu = done.stdout.split()
        return float(wall), float(cpu)

    def ready(self) -> None:
        pass

    def prepare(self, i: int):
        spec = self.order[i % len(self.order)]
        self.trace_path.unlink(missing_ok=True)
        argv = ["run-task", "--backend", "oracle", "--task", spec.instruction,
                "--trace-out", str(self.trace_path)]

        def run() -> int:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        return spec, run

    def check(self, spec, exit_code) -> tuple[int, list[str]]:
        if exit_code != 0:
            return 1, [f"run-task exited with {exit_code}"]
        trace = json.loads(self.trace_path.read_text("utf-8"))
        problems = checks.check_job(trace, spec, self.registry, paths_only=True)
        return min(1, len(problems)), problems

    def close(self) -> None:
        self.trace_path.unlink(missing_ok=True)


class CorpusEval:
    """One ``evaluate_corpus_detailed`` over a generated corpus per operation."""

    name = "corpus_eval"
    item = "sample"
    warmup = 1
    tail_percentile = 95.0  # about 400 corpus passes a run

    def __init__(self, seed: int) -> None:
        samples, self.labels = gen.corpus(catalog.bundled_catalog(), seed)
        self.items_per_op = len(samples)
        self.path = checkout.out_dir() / f"corpus-{os.getpid()}.json"
        evaluation.save_corpus(self.path, samples)
        self.stages: Counter = Counter()
        self.reference = self._check_reference()

    def set_up(self) -> tuple[float, float]:
        wall, cpu, (self.registry, self.samples) = speed.clocked(
            lambda: (catalog.bundled_catalog(), evaluation.load_corpus(self.path))
        )
        return wall, cpu

    def ready(self) -> None:
        pass

    def prepare(self, i: int):
        return None, lambda: evaluation.evaluate_corpus_detailed(self.registry, self.samples)

    def check(self, _, result) -> tuple[int, list[str]]:
        """Each sample whose report misses its label fails; if the corpus
        scores disagree with the labels, the whole pass fails."""
        metrics, reports = result
        self.stages.update(checks.report_stage(r) for r in reports)
        problems = checks.check_labels(reports, self.labels)
        n = len(self.labels)
        expected = (
            sum(label in ("not_satisfied", "not_minimal", "minimal") for label in self.labels) / n,
            sum(label in ("not_minimal", "minimal") for label in self.labels) / n,
            self.labels.count("minimal") / n,
        )
        scored = (metrics.executable_fraction, metrics.correct_fraction, metrics.minimal_fraction)
        if metrics.samples != n or scored != expected:
            problems.append(f"corpus scored {scored} over {metrics.samples}, labels give {expected} over {n}")
            return n, problems
        return len(problems), problems

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def _check_reference(self) -> tuple[int, int, list[str]]:
        """The bundled corpus_50 must keep its published scores; returns
        (samples checked, samples failed, problems)."""
        samples = evaluation.load_corpus(evaluation.bundled_corpus_path())
        metrics = evaluation.evaluate_corpus(catalog.bundled_catalog(), samples)
        scored = (metrics.executable_fraction, metrics.correct_fraction, metrics.minimal_fraction)
        if scored != checks.CORPUS_50_SCORES:
            return len(samples), len(samples), [f"corpus_50 scores {scored}, expected {checks.CORPUS_50_SCORES}"]
        return len(samples), 0, []


WORKLOADS = {w.name: w for w in (JobsHttp, Oneshot, CorpusEval)}

