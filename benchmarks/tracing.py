"""Spans around the package's public entry points, recorded in-process.

``Tracer.install`` rebinds each entry point below, in every loaded
``plantagents`` module and on its class, to a wrapper that records a span:
(id, name, start, end, parent id, operation id, ok).  The package source
is not touched, and ``uninstall`` puts every original back, so untraced
operations run the unmodified code.

A span's parent is the innermost open span on the same thread.  The plant
service answers on its own handler threads; a handler span takes as parent
the client round-trip span that is open at that moment, the way a trace
header would carry it.  With one client in a closed loop that span is
always the request being answered.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from array import array
from collections import defaultdict

# (module, attribute, span name); the layer is the span name's first part.
FUNCTIONS = (
    ("plantagents.catalog", "bundled_catalog", "catalog.load"),
    ("plantagents.catalog", "load_catalog", "catalog.load"),
    ("plantagents.tasks", "bundled_task_specs", "tasks.load"),
    ("plantagents.tasks", "load_task_specs", "tasks.load"),
    ("plantagents.prompts", "build_manager_prompt", "prompts.manager"),
    ("plantagents.prompts", "build_operator_prompt", "prompts.operator"),
    ("plantagents.prompts", "render_transport_demand", "prompts.demand"),
    ("plantagents.planner", "oracle_plan_skills", "planner.search"),
    ("plantagents.parsing", "parse_skill_sequence", "parsing.skills"),
    ("plantagents.parsing", "parse_function_steps", "parsing.steps"),
    ("plantagents.validation", "validate_plan", "validation.validate_plan"),
    ("plantagents.validation", "validate_grammar", "validation.grammar"),
    ("plantagents.validation", "simulate_skill_plan", "validation.simulate"),
    ("plantagents.validation", "check_satisfaction", "validation.satisfaction"),
    ("plantagents.validation", "check_minimality", "validation.minimality"),
    ("plantagents.validation", "plan_route", "validation.plan_route"),
    ("plantagents.validation", "function_step_params", "validation.step_params"),
    ("plantagents.service", "serve_plant", "service.start"),
    ("plantagents.orchestrator", "run_task", "orchestrator.run_task"),
    ("plantagents.orchestrator", "perform_skill_via_operator", "orchestrator.operator"),
    ("plantagents.evaluation", "evaluate_corpus_detailed", "evaluation.corpus"),
    ("plantagents.evaluation", "evaluate_sample", "evaluation.sample"),
    ("plantagents.cli", "main", "cli.main"),
)

# (module, class, attribute, span name)
METHODS = (
    ("plantagents.catalog", "Registry", "rebased", "catalog.rebased"),
    ("plantagents.catalog", "Registry", "known_endpoints", "catalog.known_endpoints"),
    ("plantagents.backends", "OracleBackend", "complete", "backends.complete"),
    ("plantagents.backends", "ReplayBackend", "complete", "backends.complete"),
    ("plantagents.backends", "RemoteBackend", "complete", "backends.complete"),
    ("plantagents.plant", "PlantSim", "standard_start", "plant.standard_start"),
    ("plantagents.plant", "PlantSim", "clone", "plant.clone"),
    ("plantagents.plant", "PlantSim", "snapshot", "plant.snapshot"),
    ("plantagents.plant", "PlantSim", "apply_skill", "plant.apply"),
    ("plantagents.plant", "PlantSim", "apply_functionality", "plant.apply"),
    ("plantagents.service", "PlantService", "stop", "service.stop"),
    # The client side of a plant call: one HTTP round trip.
    ("requests", "Session", "post", "service.post"),
    ("requests", "Session", "get", "service.get"),
    # The server side of a plant call, on a handler thread.
    ("plantagents.service", "PlantService", "finish_request", "service.handler"),
    # The CLI's trace dump: the trace to a dict, then to JSON text.
    ("plantagents.orchestrator", "ExecutionTrace", "to_dict", "cli.trace_dump"),
)

CLIENT_SPANS = ("service.post", "service.get")
SERVER_SPANS = ("service.handler",)


class Tracer:
    """Records spans while installed; one operation at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self.connections = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._remote_parent: int | None = None
        self._open_handlers = 0
        self._handlers_lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- rebinding -----------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "plantagents"]
        for module_name, attr, span in FUNCTIONS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)
        for module_name, class_name, attr, span in METHODS:
            if module_name not in sys.modules:
                continue
            cls = getattr(sys.modules[module_name], class_name)
            raw = cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self._wrap(raw.__func__, span)))
            else:
                self._rebind(cls, attr, self._wrap(getattr(cls, attr), span))
        # Accepted connections, counted where the server takes them.
        service = sys.modules.get("plantagents.service")
        if service is not None:
            self._rebind(service.PlantService, "process_request", self._count(service.PlantService.process_request))
        # The CLI renders the trace with json.dumps from its own namespace.
        cli = sys.modules.get("plantagents.cli")
        if cli is not None:
            proxy = type(cli.json)("json")
            proxy.__dict__.update(vars(cli.json))
            proxy.dumps = self._wrap(cli.json.dumps, "cli.trace_dump")
            self._rebind(cli, "json", proxy)

    def uninstall(self) -> None:
        for owner, name, had, original in reversed(self._undo):
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()

    def _rebind(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.connections += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str):
        tracer = self
        client = name in CLIENT_SPANS
        server = name in SERVER_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif server:
                parent = tracer._remote_parent
            else:
                parent = None
            span_id = next(tracer._ids)
            op_id = tracer.op_id
            stack.append(span_id)
            if client:
                tracer._remote_parent = span_id
            if server:
                with tracer._handlers_lock:
                    tracer._open_handlers += 1
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if client:
                    tracer._remote_parent = None
                tracer.spans.append((span_id, name, start, end, parent, op_id, ok))
                if server:
                    with tracer._handlers_lock:
                        tracer._open_handlers -= 1

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- operations ------------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans = []
        self.install()

    def end(self, timeout: float = 2.0) -> list[tuple]:
        """Uninstall and return the operation's spans, once every plant
        handler still finishing its reply has closed its span."""
        deadline = time.monotonic() + timeout
        while self._open_handlers and time.monotonic() < deadline:
            time.sleep(0.0005)
        self.uninstall()
        spans, self.spans = self.spans, []
        op_id, self.op_id = self.op_id, None
        return [s for s in spans if s[5] == op_id]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


class LayerStats:
    """Per-span-name and per-layer totals over the traced operations."""

    def __init__(self) -> None:
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_by_name: dict[str, array] = defaultdict(lambda: array("d"))
        self.failures: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.span_count = 0

    def add(self, spans: list[tuple]) -> None:
        own = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        for span_id, name, start, end, parent, _, ok in spans:
            layer = name.split(".", 1)[0]
            self.durations[name].append(end - start)
            self.self_by_name[name].append(own[span_id])
            self.layer_self[layer] += own[span_id]
            # Busy time counts a layer's outermost spans only, so nested
            # calls within one layer are not counted twice.
            parent_name = names.get(parent)
            if parent_name is None or parent_name.split(".", 1)[0] != layer:
                self.layer_busy[layer] += end - start
            if not ok:
                self.failures[name] += 1
        self.span_count += len(spans)

    def count(self, *names: str) -> int:
        return sum(len(self.durations.get(n, ())) for n in names)

    def median(self, *names: str, own: bool = False) -> float:
        source = self.self_by_name if own else self.durations
        values = [v for n in names for v in source.get(n, ())]
        return statistics.median(values) if values else 0.0

    def total(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names)
