"""Where the benchmark finds the package, and what it records about the host.

The benchmark runs against the package source in ``src/`` of the checkout
it sits in, never against an installed copy, and writes its temporary files
and results only under ``.bench_out/`` of that checkout.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "plantagents"
OUT = ROOT / ".bench_out"

# Proxy settings would route the plant's loopback traffic through another
# host; the benchmark measures direct loopback calls only.
_PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


class MissingSource(RuntimeError):
    """The checkout holds no package source to measure."""


def use_source() -> None:
    """Put the checkout's ``src/`` first on the import path.

    Raises MissingSource when the checkout has no package, so the benchmark
    fails instead of measuring some other installed copy.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSource(f"no package source at {PACKAGE}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in list(os.environ):
        if name.lower() in _PROXY_VARS:
            del os.environ[name]


def out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def environment() -> dict:
    """The facts a reader needs to compare two results."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
        "network": "loopback only (127.0.0.1), proxy variables cleared",
        "tracing": "in-process spans from the benchmark's own wrappers; no system-wide tracing",
    }


def _commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # for a checkout that is not a repository itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
