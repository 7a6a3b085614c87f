"""The benchmark's tracer rebinds package entry points by name; each name
must resolve, or a traced run silently loses that span."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, None, attr) for module, attr, _ in tracing.FUNCTIONS]
    targets += [(module, cls, attr) for module, cls, attr, _ in tracing.METHODS]
    unresolved = []
    for module_name, class_name, attr in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(".".join(filter(None, (module_name, class_name, attr))))
    assert len(targets) > 0
    assert unresolved == []
