"""Command-line entry point wiring all the pieces together.

Subcommands: serve (plant HTTP service), render-prompt, parse, validate,
run-task, collect, evaluate.  Every subcommand honors --catalog to swap
the bundled plant description for another file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .backends import (
    BackendError,
    CompletionBackend,
    OracleBackend,
    RemoteBackend,
    ReplayBackend,
)
from .catalog import CatalogError, Registry, bundled_catalog, load_catalog
from .evaluation import (
    collect_corpus,
    evaluate_corpus_detailed,
    load_corpus,
    save_corpus,
)
from .orchestrator import run_task
from .parsing import (
    ParseError,
    parse_function_steps,
    parse_skill_sequence,
    steps_from_json,
    steps_to_json,
)
from .plant import PlantSim
from .prompts import PromptError, build_manager_prompt, build_operator_prompt
from .service import DEFAULT_PORT, PlantService, serve_plant
from .tasks import TaskError, TaskSpec, bundled_task_for, bundled_task_spec, bundled_task_specs, load_task_specs
from .validation import move_dock_target, simulate_function_steps, validate_plan


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        CatalogError,
        ParseError,
        PromptError,
        TaskError,
        BackendError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantagents",
        description="LLM-agent planning and control for a simulated modular production plant",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--catalog", help="catalog file (defaults to the bundled plant)")
        p.set_defaults(handler=handler)
        return p

    p = add("serve", "run the plant HTTP service", _cmd_serve)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--material", default="steel", help="material of the staged workpiece")
    p.add_argument("--workpiece-id", default="wp1")

    p = add("render-prompt", "print a fully assembled agent prompt", _cmd_render_prompt)
    p.add_argument("--agent", choices=["manager", "operator"], required=True)
    p.add_argument("--module", help="module id for the operator agent (default: the transport robot)")
    p.add_argument("--task", required=True, help="task text (manager) or transport demand (operator)")

    p = add("parse", "parse completion text from standard input", _cmd_parse)
    p.add_argument("--kind", choices=["skills", "steps"], required=True)

    p = add("validate", "judge a plan read from standard input", _cmd_validate)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--task-spec", help="task specification file")
    group.add_argument("--task-id", help="bundled task id")

    p = add("run-task", "run one task end to end against a plant", _cmd_run_task)
    p.add_argument("--backend", choices=["oracle", "replay", "remote"], required=True)
    p.add_argument("--task", required=True, help="task text handed to the manager agent")
    p.add_argument("--task-spec", help="task specification file (for goal details)")
    p.add_argument("--plant-url", help="existing plant service; omit to serve a fresh one")
    p.add_argument("--trace-out", help="write the execution trace JSON here")
    p.add_argument("--replay-file", help="replay corpus (backend=replay)")

    p = add("collect", "record completions for a task suite into a corpus", _cmd_collect)
    p.add_argument("--tasks", required=True, help="task specification file")
    p.add_argument("--n", type=int, required=True, help="completions per task")
    p.add_argument("--backend", choices=["oracle", "replay", "remote"], default="remote")
    p.add_argument("--out", required=True, help="corpus file to write")
    p.add_argument("--replay-file", help="replay corpus (backend=replay)")
    p.add_argument("--temperature", type=float, default=0.0)

    p = add("evaluate", "score a recorded corpus", _cmd_evaluate)
    p.add_argument("--corpus", required=True, help="corpus file of {task_spec, completion_text}")
    p.add_argument("--report", help="write per-sample validation reports here")

    return parser


def _registry(args) -> Registry:
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    return bundled_catalog()


def _make_backend(args, registry: Registry, specs: list[TaskSpec]) -> CompletionBackend:
    """The backend `--backend` names; the oracle knows the bundled tasks and
    `specs`."""
    if args.backend == "oracle":
        return OracleBackend(registry, bundled_task_specs() + specs)
    if args.backend == "replay":
        if not getattr(args, "replay_file", None):
            raise BackendError("backend=replay needs --replay-file")
        return ReplayBackend.from_file(args.replay_file)
    return RemoteBackend.from_env()


# ---------------------------------------------------------------------------
# Handlers

def _cmd_serve(args) -> int:
    sim = PlantSim.standard_start(
        _registry(args), workpiece_id=args.workpiece_id, material=args.material
    )
    service = PlantService(sim, host=args.host, port=args.port)
    print(f"plant service listening on {service.base_url}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.server_close()
    return 0


def _cmd_render_prompt(args) -> int:
    registry = _registry(args)
    if args.agent == "manager":
        print(build_manager_prompt(registry, args.task))
    else:
        module_id = args.module or registry.transport_module().id
        print(build_operator_prompt(registry, module_id, args.task))
    return 0


def _cmd_parse(args) -> int:
    text = sys.stdin.read()
    if args.kind == "skills":
        plan = parse_skill_sequence(text)
        print(json.dumps(
            {"steps": list(plan.steps), "explanation_lines": list(plan.explanation_lines)},
            indent=2,
        ))
    else:
        steps = parse_function_steps(text)
        print(steps_to_json(steps))
    return 0


def _cmd_validate(args) -> int:
    registry = _registry(args)
    if args.task_id:
        spec = bundled_task_spec(args.task_id)
    else:
        specs = load_task_specs(args.task_spec)
        spec = specs[0]
    text = sys.stdin.read()
    stripped = text.strip()
    if stripped.startswith("["):
        # A parsed functionality-step array: judge executability only,
        # starting with the workpiece ready at the first step's module.
        steps = steps_from_json(stripped)
        start_module = None
        for step in steps:
            if step.action == "move_dock":
                start_module = move_dock_target(registry, step.description)
                break
        if start_module is None:
            raise ParseError("cannot locate a move_dock step to anchor the start state")
        sim = PlantSim.standard_start(
            registry, material=spec.material, location=start_module, in_inventory=False
        )
        executable, fault, _ = simulate_function_steps(registry, steps, sim)
        print(json.dumps({"executable": executable, "fault": fault}, indent=2))
        return 0 if executable else 1
    report = validate_plan(registry, text, spec)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_run_task(args) -> int:
    base_registry = _registry(args)
    specs = load_task_specs(args.task_spec) if args.task_spec else []
    spec = specs[0] if specs else bundled_task_for(args.task)

    service = None
    try:
        if args.plant_url:
            plant_url = args.plant_url.rstrip("/")
        else:
            material = spec.material if spec else "steel"
            location = spec.initial_location if spec else None
            sim = PlantSim.standard_start(base_registry, material=material, location=location)
            service = serve_plant(sim)
            plant_url = service.base_url
        # Prompts and dispatch must name URLs the live plant answers at.
        registry = base_registry.rebased(plant_url)
        backend = _make_backend(args, registry, specs)
        trace = run_task(
            args.task, backend, registry, plant_url, task_spec=spec
        )
    finally:
        if service is not None:
            service.stop()

    rendered = json.dumps(trace.to_dict(), indent=2)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"trace written to {args.trace_out}")
    else:
        print(rendered)
    print(f"outcome: {trace.outcome}", file=sys.stderr)
    return 0 if trace.outcome == "completed" else 1


def _cmd_collect(args) -> int:
    registry = _registry(args)
    specs = load_task_specs(args.tasks)
    backend = _make_backend(args, registry, specs)
    samples = collect_corpus(
        registry, specs, backend, per_task=args.n, temperature=args.temperature
    )
    save_corpus(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    registry = _registry(args)
    samples = load_corpus(args.corpus)
    metrics, reports = evaluate_corpus_detailed(registry, samples)
    print(json.dumps(metrics.to_dict(), indent=2))
    if args.report:
        payload = [r.to_dict() for r in reports]
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"per-sample reports written to {args.report}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
