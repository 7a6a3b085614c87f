"""LLM-agent planning and control for a simulated modular production plant.

A digital-twin catalog describes the plant; prompt builders turn it into
five-section agent prompts; completion backends (replay, oracle, remote)
answer them; parsers and validators turn answers into judged plans; the
orchestrator executes plans against the simulated plant's services, over
HTTP or in-process; and the evaluation harness scores recorded completion
corpora.
"""

from .backends import (
    BackendError,
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    OracleBackend,
    OracleError,
    RemoteBackend,
    ReplayBackend,
    ReplayMissError,
    RemoteError,
    format_manager_completion,
    prompt_hash,
)
from .catalog import (
    CatalogError,
    Component,
    Functionality,
    Module,
    Registry,
    Skill,
    bundled_catalog,
    canonical_url,
    load_catalog,
    render_manager_context,
    render_operator_context,
)
from .evaluation import (
    EvalMetrics,
    EvalSample,
    bundled_corpus_path,
    collect_corpus,
    evaluate_corpus,
    evaluate_corpus_detailed,
    evaluate_sample,
    load_corpus,
    save_corpus,
)
from .orchestrator import (
    ExecutionTrace,
    HttpPlant,
    OrchestrationError,
    TraceRecord,
    perform_skill_via_operator,
    run_task,
)
from .parsing import (
    FunctionStep,
    ParseError,
    SkillPlan,
    parse_function_steps,
    parse_skill_sequence,
    steps_from_json,
    steps_to_json,
)
from .planner import PlanningError, oracle_plan_skills
from .plant import (
    Feature,
    PlantFault,
    PlantSim,
    PlantState,
    RobotState,
    Workpiece,
)
from .prompts import (
    PromptError,
    build_manager_prompt,
    build_operator_prompt,
    fill_transport_output,
    parse_transport_demand,
    render_transport_demand,
)
from .service import DEFAULT_PORT, LocalPlant, PlantService, serve_plant
from .tasks import (
    TaskError, TaskSpec, bundled_task_spec, bundled_task_specs, find_task_spec, load_task_specs, random_task_spec,
)
from .validation import (
    GrammarViolation,
    ValidationReport,
    check_minimality,
    check_satisfaction,
    nonstandard_skills,
    plan_route,
    simulate_skill_plan,
    validate_grammar,
    validate_plan,
)

__version__ = "0.1.0"
