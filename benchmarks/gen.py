"""Seeded inputs for the benchmark workloads.

Each generator takes the benchmark's seed and returns plain data. Random
streams are seeded with strings, which ``random`` hashes with SHA-512, and
nothing iterates over a set, so the same seed gives byte-identical output
under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random

from plantagents.backends import format_manager_completion
from plantagents.catalog import Registry
from plantagents.evaluation import EvalSample
from plantagents.planner import oracle_plan_skills
from plantagents.tasks import TaskSpec, bundled_task_specs, random_task_spec

# jobs_http: the 3 bundled tasks plus random ones.  A job's cost follows
# its plan length, so the random tasks fill a fixed quota per oracle plan
# length (the generator's own distribution, scaled to 197 tasks): seeds
# change the tasks, not the amount of work.
JOB_POOL_SIZE = 200
JOB_PLAN_LENGTHS = {2: 6, 5: 25, 6: 20, 7: 30, 8: 15, 9: 30, 10: 26, 11: 20, 12: 15, 13: 8, 14: 2}
# Longer than any run reaches at about 20 jobs/s; the sequence repeats after.
JOB_SEQUENCE_LENGTH = 5000

# corpus_eval: CORPUS_SIZE samples in blocks shaped like the bundled
# corpus_50 (demos/build_corpus.py), the paper's corpus: 50 samples over
# 3 tasks, each task with one oracle plan and 13 or 14 padded variants,
# 4 executable plans that miss a goal or check, and 2 that do not execute
# (a free-text refusal and a grammar failure).  The first block uses the 3
# bundled tasks; each later block uses 3 random tasks of the same oracle
# plan lengths.  Every seed so does the same work, in the same stage mix as
# corpus_50: 41 not_minimal, 4 not_satisfied, 3 minimal, 1 parse_failed and
# 1 grammar_failed per 50.
CORPUS_SIZE = 400
# Per task of a block, in bundled_task_specs order, as build_corpus makes
# them.  "grammar" is corpus_50's missing transport; odd blocks use an
# unknown skill code instead, which fails at the same stage.
BLOCK = (
    (("oracle", 1), ("padded", 14), ("dropped_step", 1), ("refusal", 1)),
    (("oracle", 1), ("padded", 14), ("dropped_step", 1), ("grammar", 1)),
    (("oracle", 1), ("padded", 13), ("dropped_step", 2)),
)
BLOCK_SIZE = sum(count for task in BLOCK for _, count in task)
# The padding's redundant check (I2 in the bundled catalog) and the final
# quality test it goes before (I3).
FAULT_CHECK = "fault_checked"
POST_CHECK = "quality_tested"
# The first failing stage each kind must reach, known by construction.
EXPECTED_STAGE = {
    "oracle": "minimal",
    "padded": "not_minimal",
    "dropped_step": "not_satisfied",
    "missing_transport": "grammar_failed",
    "unknown_code": "grammar_failed",
    "refusal": "parse_failed",
}

_UNKNOWN_CODES = ("Q7", "R2", "M9", "X1", "D4")
_REFUSALS = (
    "I am not able to determine a skill sequence for this request.",
    "The plant cannot produce this product with the listed modules.",
    "Sorry, I need more information about the desired product before planning.",
    "As a manager agent I would first ask the customer to confirm the material.",
)


# ---------------------------------------------------------------------------
# jobs_http

def job_pool(registry: Registry, seed: int) -> list[TaskSpec]:
    """The bundled tasks followed by seeded random tasks, JOB_POOL_SIZE in all."""
    rng = random.Random(f"jobs_http/pool/{seed}")
    bundled = list(bundled_task_specs())
    quota = dict(JOB_PLAN_LENGTHS)
    if len(bundled) + sum(quota.values()) != JOB_POOL_SIZE:
        raise ValueError("plan length quotas do not fill the job pool")
    return bundled + _random_tasks(registry, rng, quota)


def job_sequence(pool_size: int, seed: int, length: int = JOB_SEQUENCE_LENGTH) -> list[int]:
    """Indices into the job pool, one per job: the pool in a fresh shuffled
    order each pass, so a run's task mix hardly depends on the seed and two
    consecutive jobs share a task only across a pass boundary."""
    rng = random.Random(f"jobs_http/sequence/{seed}")
    sequence: list[int] = []
    while len(sequence) < length:
        order = list(range(pool_size))
        rng.shuffle(order)
        sequence.extend(order)
    return sequence[:length]


def oneshot_order(seed: int) -> list[TaskSpec]:
    """The bundled tasks in a seeded order; the CLI runs cycle through it."""
    specs = list(bundled_task_specs())
    random.Random(f"oneshot/{seed}").shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# corpus_eval

def corpus(registry: Registry, seed: int, size: int = CORPUS_SIZE) -> tuple[list[EvalSample], list[str]]:
    """A labelled corpus: samples and, per sample, its expected first stage.

    ``size`` must be a multiple of BLOCK_SIZE (50 samples).
    """
    if size % BLOCK_SIZE:
        raise ValueError(f"corpus size must be a multiple of {BLOCK_SIZE}")
    blocks = size // BLOCK_SIZE
    rng = random.Random(f"corpus_eval/{seed}")
    bundled = list(bundled_task_specs())
    lengths = [len(oracle_plan_skills(registry, spec)) for spec in bundled]
    quota = {length: lengths.count(length) * (blocks - 1) for length in lengths}
    extra = _random_tasks(registry, rng, quota, accept=_paddable)
    samples, labels = [], []
    for block in range(blocks):
        for role, spec in enumerate(bundled):
            if block:
                spec = next(t for t in extra if len(oracle_plan_skills(registry, t)) == lengths[role])
                extra.remove(spec)
            plan = oracle_plan_skills(registry, spec)
            for kind, count in BLOCK[role]:
                if kind == "grammar":
                    kind = "unknown_code" if block % 2 else "missing_transport"
                for variant in range(count):
                    samples.append(EvalSample(spec, _completion(registry, kind, spec, plan, rng, variant)))
                    labels.append(EXPECTED_STAGE[kind])
    order = list(range(size))
    rng.shuffle(order)
    return [samples[i] for i in order], [labels[i] for i in order]


def _paddable(spec: TaskSpec) -> bool:
    """Padded as build_corpus pads: the task has a production step and a
    final quality test, and does not ask for the fault check the padding
    adds."""
    checks = {f.kind for f in spec.required_checks}
    return bool(spec.goal_features) and POST_CHECK in checks and FAULT_CHECK not in checks


def _random_tasks(
    registry: Registry, rng: random.Random, quota: dict[int, int], accept=lambda spec: True
) -> list[TaskSpec]:
    """Accepted random tasks, in generation order, until each oracle plan
    length has its quota.  ``quota`` is consumed."""
    tasks = []
    index = 0
    while any(quota.values()):
        spec = random_task_spec(registry, rng, index)
        index += 1
        length = len(oracle_plan_skills(registry, spec))
        if quota.get(length) and accept(spec):
            quota[length] -= 1
            tasks.append(spec)
    return tasks


def _completion(
    registry: Registry, kind: str, spec: TaskSpec, plan: list[str], rng: random.Random, variant: int
) -> str:
    transport = registry.transport_skill().code
    plan = list(plan)
    if kind == "oracle":
        return format_manager_completion(registry, plan)
    if kind == "padded":
        # build_corpus's padded_variants: variant 0 adds a redundant fault
        # check before the quality test; variant k adds (k + 1) // 2
        # self-transports after the first production step, and the fault
        # check too when k is even.
        goals = {f.kind for f in spec.goal_features}
        production = next(i for i, code in enumerate(plan) if registry.skill(code).feature in goals)
        if variant % 2 == 0:
            check = next(i for i, code in enumerate(plan) if registry.skill(code).feature == POST_CHECK)
            plan.insert(check, _code_for(registry, FAULT_CHECK))
        plan[production + 1:production + 1] = [transport] * ((variant + 1) // 2)
        return format_manager_completion(registry, plan)
    if kind == "dropped_step":
        # A goal or check step left out, with the transport that served it,
        # as build_corpus drops the drilling or the quality test.
        needed = {f.kind for f in spec.goal_features + spec.required_checks}
        i = rng.choice([i for i, code in enumerate(plan) if registry.skill(code).feature in needed])
        del plan[i]
        if plan[i - 1] == transport and plan[i] == transport:
            del plan[i]
        return format_manager_completion(registry, plan)
    if kind == "missing_transport":
        # Oracle plans transport only between different modules.
        del plan[rng.choice([i for i, code in enumerate(plan) if code == transport])]
        return format_manager_completion(registry, plan)
    if kind == "unknown_code":
        position = rng.randint(1, len(plan) - 2)
        unknown = rng.choice(_UNKNOWN_CODES)
        explanation = format_manager_completion(registry, plan).split(" Explanation: ", 1)[1]
        codes = [f"({code})" for code in plan]
        codes[position] = f"({unknown})"
        return "{%s} Explanation: %s" % (" – ".join(codes), explanation)
    if kind == "refusal":
        return rng.choice(_REFUSALS)
    raise ValueError(f"unknown sample kind {kind!r}")


def _code_for(registry: Registry, feature: str) -> str:
    return next(s.code for m in registry.modules for s in m.skills if s.feature == feature)
