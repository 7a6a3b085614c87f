"""Seeded benchmark of plant jobs, one-shot CLI runs and corpus scoring.

    python3 benchmarks/run.py --workload jobs_http --seed 1 --seconds 35 --trace 0

Run from the repository root; it measures the package in ``src/``.  One
run sets up the workload several times, warms it up, then repeats its
operation for ``--seconds`` seconds and checks every output.  Timings are
reported at a reference CPU speed (see speed.py), with the wall-clock
figures alongside in the printed report.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics.  With ``--trace 1`` each operation runs
once more, traced, on the same input, and the object holds the per-layer
metrics instead.  A run with any failed check exits with 1.  Results, and
for a traced run its spans, are also written to ``.bench_out/``.  See
METHOD.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

import checkout
import speed

LAYERS = (
    "catalog", "tasks", "prompts", "backends", "planner", "parsing",
    "validation", "plant", "service", "orchestrator", "evaluation", "cli",
)
# How each workload names its operation and throughput in the printed report.
ALIASES = {
    "jobs_http": ("job_ms", "jobs_per_s"),
    "oneshot": ("oneshot_ms", "oneshot_runs_per_s"),
    "corpus_eval": ("corpus_ms", "samples_per_s"),
}
# Spans kept for the results file; the per-layer figures use every span.
SPANS_KEPT = 20000
PROBLEMS_KEPT = 20
# Each run sets up this many times and reports the median.
SETUP_REPEATS = 9
# Candidate tail percentiles, highest first.  Each workload names the one
# its runs reach with ten samples to spare, and keeps it as long as they do,
# so a faster commit, with more samples, is still compared at the same one.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        checkout.use_source()
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = checkout.environment()
    # Before any thread starts, so the plant's threads share the CPU too.
    env["pinned_cpu"] = speed.pin()

    import workloads
    from tracing import LayerStats, Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    run = Run(workload, tracer, LayerStats())
    try:
        run.setup()
        run.measure(args.seconds)
    finally:
        workload.close()

    end_to_end = run.end_to_end()
    per_layer = run.per_layer() if tracer else None
    metrics = per_layer if tracer else end_to_end
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print_report(args, env, run, end_to_end, per_layer)
    save(args, env, run, end_to_end, per_layer)
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


class Timing(NamedTuple):
    """One timed call: its wall and process CPU seconds, and the mean CPU
    seconds of the calibration kernel just before and just after it."""

    wall: float
    cpu: float
    kernel: float


def calibrated(measure):
    """Run measure(), which returns (wall s, CPU s, result), between two
    calibrations; returns (Timing, result)."""
    before = speed.kernel_seconds()
    wall, cpu, result = measure()
    # The speed can change during a call; the mean of the kernel times on
    # both sides follows it better than either alone.
    return Timing(wall, cpu, (before + speed.kernel_seconds()) / 2), result


class Run:
    """One workload measured for a fixed time, with its checks."""

    def __init__(self, workload, tracer, stats) -> None:
        self.workload = workload
        self.tracer = tracer
        self.stats = stats
        self.setups: list[Timing] = []
        self.untraced: list[Timing] = []
        self.traced: list[Timing] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[tuple] = []

    def setup(self) -> None:
        self._count(*self.workload.reference)
        # A set-up reports its own (wall, CPU) seconds: the oneshot one runs
        # in a child interpreter, which inherits the pinned CPU.
        for _ in range(SETUP_REPEATS):
            timing, _ = calibrated(lambda: (*self.workload.set_up(), None))
            self.setups.append(timing)
        self.workload.ready()
        for i in range(self.workload.warmup):
            context, op = self.workload.prepare(i)
            self._check(context, self._call(op))

    def measure(self, seconds: float) -> None:
        gc.collect()
        i = self.workload.warmup
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self._operation(i, traced=False)
            # A traced run repeats each operation traced on the same input,
            # so the two medians differ by the tracing overhead alone.
            if self.tracer is not None:
                self._operation(i, traced=True)
            i += 1

    def _operation(self, i: int, traced: bool) -> None:
        context, op = self.workload.prepare(i)
        if traced:
            self.tracer.begin(i)
        timing, result = calibrated(lambda: speed.clocked(lambda: self._call(op)))
        if traced:
            spans = self.tracer.end()
            self.stats.add(spans)
            self.spans.extend(spans[: SPANS_KEPT - len(self.spans)])
            self.traced.append(timing)
        else:
            self.untraced.append(timing)
        self._check(context, result)

    @staticmethod
    def _call(op):
        # A crash in the program is a failed operation, not a failed run.
        try:
            return op()
        except Exception:  # noqa: BLE001
            return Crash(traceback.format_exc(limit=3))

    def _check(self, context, result) -> None:
        # A crash, or a check that cannot read the output, fails every item
        # of the operation; a check names the items that failed.
        items = self.workload.items_per_op
        if isinstance(result, Crash):
            failed, problems = items, [result.text]
        else:
            try:
                failed, problems = self.workload.check(context, result)
            except Exception:  # noqa: BLE001
                failed, problems = items, [traceback.format_exc(limit=3)]
        self._count(items, failed, problems)

    def _count(self, items: int, failed: int, problems: list[str]) -> None:
        self.attempted += items
        self.failed += failed
        self.problems.extend(problems[: PROBLEMS_KEPT - len(self.problems)])

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, as_measured: bool = False) -> dict[str, tuple[float, str]]:
        """The compared metrics, at the reference speed; as_measured gives
        the same figures in wall-clock time, for the report."""
        if as_measured:
            setups, latencies = [t.wall for t in self.setups], [t.wall for t in self.untraced]
            ms, per_s = "ms", "1/s"
        else:
            setups, latencies = speed.reference_times(self.setups), speed.reference_times(self.untraced)
            ms, per_s = "ref_ms", "1/ref_s"
        tail, _ = tail_of(latencies, self.workload.tail_percentile)
        return {
            "setup_s": (statistics.median(setups), "s"),
            "op_ms.p50": (statistics.median(latencies) * 1e3, ms),
            "op_ms.tail": (tail * 1e3, ms),
            "items_per_s": (self.workload.items_per_op * len(latencies) / sum(latencies), per_s),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        from checks import STAGES

        stats = self.stats
        wall = sum(t.wall for t in self.traced)
        items = self.workload.items_per_op * len(self.traced)

        def us(*names: str) -> tuple[float, str]:
            return stats.median(*names) * 1e6, "us"

        def ms(*names: str) -> tuple[float, str]:
            return stats.median(*names) * 1e3, "ms"

        def per_item(count: float) -> tuple[float, str]:
            return count / items, "count"

        metrics: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            metrics[f"share.{layer}"] = (stats.layer_self[layer] / wall, "ratio")
            metrics[f"{layer}.self_ms"] = (stats.layer_self[layer] / items * 1e3, "ms")
            metrics[f"{layer}.busy_ms"] = (stats.layer_busy[layer] / items * 1e3, "ms")

        plant_calls = stats.count("service.post", "service.get")
        connections = self.tracer.connections
        stages = self.workload.stages
        judged = sum(stages.values())
        untraced_p50 = statistics.median(speed.reference_times(self.untraced))
        overhead = statistics.median(speed.reference_times(self.traced)) - untraced_p50
        metrics.update({
            "service.rtt_ms.post": ms("service.post"),
            "service.rtt_ms.get": ms("service.get"),
            "service.handler_ms": ms("service.handler"),
            "service.client_ms": (stats.median("service.post", "service.get", own=True) * 1e3, "ms"),
            "service.calls_per_job": per_item(plant_calls),
            "service.calls_per_connection": (plant_calls / connections if connections else 0.0, "count"),
            "service.start_ms": ms("service.start"),
            "service.stop_ms": ms("service.stop"),
            "catalog.load_ms": ms("catalog.load"),
            "catalog.rebased_ms": ms("catalog.rebased"),
            "catalog.known_endpoints_us": us("catalog.known_endpoints"),
            "cli.trace_dump_ms": (stats.total("cli.trace_dump") / items * 1e3, "ms"),
            "prompts.manager_us": us("prompts.manager"),
            "prompts.operator_us": us("prompts.operator"),
            "prompts.builds_per_job": per_item(stats.count("prompts.manager", "prompts.operator")),
            "backends.complete_us": us("backends.complete"),
            "backends.calls_per_job": per_item(stats.count("backends.complete")),
            "planner.search_us": us("planner.search"),
            "planner.calls_per_sample": per_item(stats.count("planner.search")),
            "parsing.skills_us": us("parsing.skills"),
            "parsing.steps_us": us("parsing.steps"),
            "parsing.failures": per_item(stats.failures["parsing.skills"] + stats.failures["parsing.steps"]),
            "validation.grammar_us": us("validation.grammar"),
            "validation.simulate_us": us("validation.simulate"),
            "validation.satisfaction_us": us("validation.satisfaction"),
            "validation.minimality_us": us("validation.minimality"),
        })
        for stage in STAGES:
            metrics[f"validation.stage.{stage}"] = (stages[stage] / judged if judged else 0.0, "ratio")
        reached = stages["not_minimal"] + stages["minimal"]
        metrics.update({
            "validation.full_pipeline_ratio": (reached / judged if judged else 0.0, "ratio"),
            "plant.apply_us": us("plant.apply"),
            "plant.clone_us": us("plant.clone"),
            "plant.snapshot_us": us("plant.snapshot"),
            "plant.faults": per_item(stats.failures["plant.apply"]),
            "evaluation.sample_us": us("evaluation.sample"),
            "trace.overhead_ms": (overhead * 1e3, "ref_ms"),
            "trace.overhead_pct": (overhead / untraced_p50 * 100, "%"),
            "trace.coverage": (sum(stats.layer_self.values()) / wall, "ratio"),
            "trace.spans_per_item": per_item(stats.span_count),
        })
        return metrics


class Crash:
    """An exception from the program, carried to the check as the result."""

    def __init__(self, text: str) -> None:
        self.text = text


def tail_of(values: list[float], highest: float) -> tuple[float, float]:
    """The tail: the value at the highest of TAIL_PERCENTILES, up to
    ``highest``, that has at least ten samples beyond it (nearest rank),
    and which percentile that is."""
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * n)
        if percentile <= highest and n - rank >= 10:
            return ordered[rank - 1], percentile
    return ordered[-1], 100.0


def print_report(args, env, run: Run, end_to_end: dict, per_layer: dict | None) -> None:
    op_name, rate_name = ALIASES[args.workload]
    wall = run.end_to_end(as_measured=True)
    # Peak RSS only grows; show the figure taken before the per-layer sums.
    wall["peak_rss_mb"] = end_to_end["peak_rss_mb"]
    n = len(run.untraced)
    _, percentile = tail_of(speed.reference_times(run.untraced), run.workload.tail_percentile)
    kernel_ms = statistics.median(t.kernel for t in run.untraced) * 1e3
    mode = "each operation untraced, then traced" if per_layer else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  {mode}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  calibration kernel {kernel_ms:.4f} ms median (reference {speed.REFERENCE_S * 1e3:g} ms)")
    print(f"  {'metric':<24} {'at reference':>14}  {'as measured':>14}")
    rows = [
        ("setup_s", "setup_s", f"median of {len(run.setups)} set-ups"),
        (f"{op_name}.p50", "op_ms.p50", f"n={n}"),
        (f"{op_name}.tail", "op_ms.tail", f"p{percentile:g}, n={n}"),
        (rate_name, "items_per_s", f"{run.workload.items_per_op} {run.workload.item}(s) per operation"),
        ("peak_rss_mb", "peak_rss_mb", ""),
    ]
    for label, name, note in rows:
        (ref, ref_unit), (measured, unit) = end_to_end[name], wall[name]
        print(f"  {label:<24} {ref:14.4f}  {measured:14.4f} {unit:<5} {note}")
    print(f"  {'failed_fraction':<24} {run.failed / run.attempted:14.4f}  "
          f"{run.failed} of {run.attempted} {run.workload.item}s")
    for problem in run.problems:
        print("  FAILED " + problem.strip().replace("\n", "\n         "))
    if per_layer is None:
        return
    print(f"  traced operations: {len(run.traced)}; per item = per {run.workload.item}; wall-clock spans")
    print(f"  {'layer':<13} {'busy_ms':>10} {'self_ms':>10} {'share':>7}")
    for layer in LAYERS:
        busy, own, share = (per_layer[f"{layer}.busy_ms"][0], per_layer[f"{layer}.self_ms"][0],
                            per_layer[f"share.{layer}"][0])
        print(f"  {layer:<13} {busy:10.4f} {own:10.4f} {share:7.3f}")
    for name, (value, unit) in per_layer.items():
        if not name.startswith("share.") and not name.endswith(("self_ms", "busy_ms")):
            print(f"  {name:<34} {value:12.4f} {unit}")


def save(args, env, run: Run, end_to_end: dict, per_layer: dict | None) -> None:
    _, percentile = tail_of(speed.reference_times(run.untraced), run.workload.tail_percentile)
    record = {
        "args": vars(args),
        "env": env,
        "reference_kernel_s": speed.REFERENCE_S,
        "kernel_neighbours": speed.NEIGHBOURS,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "timing_fields": list(Timing._fields),
        "setups": run.setups,
        "untraced": run.untraced,
        "traced": run.traced,
        "tail_percentile": percentile,
        "end_to_end": end_to_end,
        "end_to_end_as_measured": run.end_to_end(as_measured=True),
        "per_layer": per_layer,
        "span_fields": ["id", "name", "start", "end", "parent", "operation", "ok"],
        "spans": run.spans,
    }
    path = checkout.out_dir() / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), "utf-8")


if __name__ == "__main__":
    sys.exit(main())
