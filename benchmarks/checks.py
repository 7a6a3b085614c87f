"""Correctness checks on the program's outputs.

Every checker returns a list of problems; an empty list means the output
checks out.  The benchmark counts each item with a problem as failed.
"""

from __future__ import annotations

from urllib.parse import urlsplit

from plantagents.catalog import Registry, canonical_url
from plantagents.planner import oracle_plan_skills
from plantagents.plant import PlantSim
from plantagents.tasks import TaskSpec
from plantagents.validation import ValidationReport, goal_details, simulate_skill_plan

# First stage a sample fails, in pipeline order; "minimal" passed them all.
STAGES = (
    "parse_failed",
    "grammar_failed",
    "not_executable",
    "not_satisfied",
    "not_minimal",
    "minimal",
)

# The host a CLI run's plant service binds (serve_plant's default).
LOOPBACK = "127.0.0.1"

# The bundled corpus_50 scores (executable, correct, minimal).
CORPUS_50_SCORES = (0.96, 0.88, 0.06)


def report_stage(report: ValidationReport) -> str:
    if not report.parsed:
        return "parse_failed"
    if not report.grammar_ok:
        return "grammar_failed"
    if not report.executable:
        return "not_executable"
    if not report.satisfies_task:
        return "not_satisfied"
    if not report.minimal:
        return "not_minimal"
    return "minimal"


def check_labels(reports: list[ValidationReport], labels: list[str]) -> list[str]:
    """Each report must stop at the stage its sample was built to reach."""
    if len(reports) != len(labels):
        return [f"{len(reports)} reports for {len(labels)} labels"]
    problems = []
    for i, (report, label) in enumerate(zip(reports, labels)):
        stage = report_stage(report)
        if stage != label:
            problems.append(f"sample {i}: reached {stage}, labelled {label}")
    return problems


def check_trace_invariants(trace: dict) -> list[str]:
    """The two trace invariants of the execution trace format.

    A completed trace has only ok records; an aborted trace has exactly one
    non-ok record, in final position, whose reason is the abort reason.
    """
    records = trace["records"]
    bad = [i for i, record in enumerate(records) if record["status"] != "ok"]
    if trace["outcome"] == "completed":
        return [f"completed trace has a non-ok record at {i}" for i in bad]
    if trace["outcome"] != "aborted":
        return [f"unknown outcome {trace['outcome']!r}"]
    if len(bad) != 1:
        return [f"aborted trace has {len(bad)} non-ok records"]
    if bad[0] != len(records) - 1:
        return [f"aborted trace's non-ok record {bad[0]} is not last"]
    if records[-1]["reason"] != trace["abort_reason"]:
        return ["abort reason differs from the failing record's reason"]
    return []


def check_job(trace: dict, spec: TaskSpec, registry: Registry, paths_only: bool = False) -> list[str]:
    """A job must complete with the oracle's plan, call only registered
    endpoints, and leave the workpiece with what the task asks for and as
    simulating that plan does.

    ``registry`` is the catalog as the job had to call it: rebased onto the
    plant's address, so a call to any other host or port fails.  A CLI run
    starts its own plant on a free port the caller never learns; with
    ``paths_only`` a call must then go to a registered path on the loopback
    host the CLI's plant binds.
    """
    problems = check_trace_invariants(trace)
    if trace["outcome"] != "completed":
        return problems + [f"job aborted: {trace['abort_reason']}"]
    plan = oracle_plan_skills(registry, spec)
    if trace["skill_plan"] != plan:
        problems.append(f"plan {trace['skill_plan']} is not the oracle plan {plan}")

    known = registry.known_endpoints()
    known_paths = {urlsplit(url).path for url in known}
    for record in trace["records"]:
        if record["kind"] == "agent":
            continue
        url = canonical_url(record["endpoint"])
        if paths_only:
            parts = urlsplit(url)
            registered = parts.hostname == LOOPBACK and parts.path in known_paths
        else:
            registered = url in known
        if not registered:
            problems.append(f"unregistered endpoint called: {record['endpoint']}")

    workpieces = list(trace["final_state"]["workpieces"].values())
    if len(workpieces) != 1:
        return problems + [f"plant holds {len(workpieces)} workpieces after the job"]
    workpiece = workpieces[0]

    # Read straight from the task, so a fault shared by the plant service
    # and the simulator below still shows.
    have = {f["kind"]: f["detail"] for f in workpiece["features"]}
    for feature in spec.goal_features + spec.required_checks:
        if feature.kind not in have:
            problems.append(f"final workpiece lacks {feature.kind}")
        elif feature.detail is not None and have[feature.kind] != feature.detail:
            problems.append(f"final workpiece has {feature.kind} with detail {have[feature.kind]!r}")
    if workpiece["location"] != registry.storage_module().id or not workpiece["in_inventory"]:
        problems.append("final workpiece is not back in storage inventory")

    start = PlantSim.standard_start(registry, material=spec.material, location=spec.initial_location)
    executable, fault, final = simulate_skill_plan(registry, plan, start, goal_details(spec, registry))
    if not executable:
        return problems + [f"oracle plan does not simulate: {fault}"]
    expected = final.sole_workpiece().to_dict()
    for key in ("features", "location", "in_inventory"):
        if workpiece[key] != expected[key]:
            problems.append(f"final workpiece {key} {workpiece[key]!r}, simulation gives {expected[key]!r}")
    return problems
