"""CPU-speed calibration, so that timings from a host whose speed swings
can be compared.

On a shared host the CPU speed one process gets can change by a quarter or
more within seconds (a fixed pure-Python loop took 11 to 20 ms from one
second to the next on a 2-vCPU cloud VM), and every CPU-bound timing moves
with it.  So the benchmark pins itself to one CPU, times a fixed
pure-Python kernel on that CPU just before and just after each operation,
and reports the operation at a reference speed:

    reference time = off-CPU time + on-CPU time * REFERENCE_S / kernel time

where the kernel time is the median, over the operation and its
NEIGHBOURS on each side, of the mean of the two kernel runs around it.

On-CPU time is the CPU time of the whole process during the operation,
capped at its wall time; off-CPU time is the rest of the wall time.  Sleeps,
poll intervals and network waits are therefore kept as measured, and only
the part that runs on the CPU is rescaled.  With the interpreter lock and
one client waiting on one server the process runs on one CPU at a time
anyway, so pinning it to one CPU makes the kernel measure the CPU the work
runs on.
"""

from __future__ import annotations

import json
import os
import statistics
import time

# CPU time of one kernel run at the reference speed; about what the kernel
# takes on the 2-vCPU host the benchmark was written on.
REFERENCE_S = 0.55e-3
# A call's kernel time is the median over it and this many neighbours on
# each side: one kernel run is short and noisy, while the speed it measures
# holds for about a second.
NEIGHBOURS = 2


def pin() -> int | None:
    """Pin this process, and every thread and child it starts later, to its
    lowest allowed CPU; returns that CPU, or None where pinning is not
    available or not permitted (the calibration still applies)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def clocked(call):
    """Run call(); returns its wall and process CPU seconds and its result."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = call()
    return time.perf_counter() - wall, time.process_time() - cpu, result


def kernel_seconds() -> float:
    """CPU seconds of one kernel run on this thread, the faster of two."""
    best = float("inf")
    for _ in range(2):
        start = time.thread_time()
        _kernel()
        best = min(best, time.thread_time() - start)
    return best


def at_reference(wall: float, cpu: float, kernel: float) -> float:
    """A wall time with its on-CPU part rescaled to the reference speed."""
    on_cpu = min(cpu, wall)
    return wall - on_cpu + on_cpu * REFERENCE_S / kernel


def reference_times(calls: list[tuple[float, float, float]]) -> list[float]:
    """(wall, CPU, kernel) seconds of consecutive calls, at the reference speed."""
    kernels = [kernel for _, _, kernel in calls]
    return [
        at_reference(wall, cpu, statistics.median(kernels[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]))
        for i, (wall, cpu, _) in enumerate(calls)
    ]


def _kernel() -> int:
    # Work of the kinds the package does: small dicts and lists, string
    # formatting, JSON and sorting.  It calls no package code, so a change
    # to the package cannot change the reference.
    records = [{"id": i, "name": f"item{i}", "tags": [str(j) for j in range(i % 7)]} for i in range(150)]
    decoded = json.loads(json.dumps(records))
    decoded.sort(key=lambda r: (len(r["tags"]), r["name"]))
    return sum(len(r["name"]) for r in decoded)
