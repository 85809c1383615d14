"""Shared pieces of the benchmark workloads: run record, timing, memory."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: The benchmark's definition: workloads and every metric with its unit.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Repetitions of a workload's set-up step; ``setup_s`` reports their
#: median (one sample of a sub-second step does not repeat within a
#: tenth on a drifting host).
SETUP_REPEATS = 3


@dataclass
class WorkloadRun:
    """What one workload run measured and produced.

    Attributes:
        attempted / failed: operations attempted and failed in the timed
            phase (whole rounds only).
        round_rates: fault verdicts delivered per second, per round.
        op_latencies: seconds per unit of work a user submits (request
            that needed a solve, one target's generation flow, sweep),
            grouped by what the unit was (serving key, target, sweep).
        faults_detected / tests_applied: per-round quality counts.
        setup_step_s: durations of the repeated set-up step.
    """

    attempted: int = 0
    failed: int = 0
    round_rates: list[float] = field(default_factory=list)
    op_latencies: dict[object, list[float]] = field(default_factory=dict)
    faults_detected: int = 0
    tests_applied: int = 0
    setup_step_s: list[float] = field(default_factory=list)


class NoTrace:
    """Stand-in for ``layers.Tracer`` in an untraced run."""

    active = False

    def mark(self) -> None:
        pass

    def timed_done(self) -> None:
        pass

    @contextmanager
    def paused(self):
        yield


def now() -> float:
    """The benchmark's clock (monotonic, system-wide on Linux)."""
    return time.monotonic()


def timed_setup(step, repeats: int | None = None):
    """Run the set-up *step* *repeats* (``SETUP_REPEATS``) times.

    Returns (durations, result of the last repetition): the workload
    runs on the last state built, the metric is the median duration.
    """
    durations = []
    result = None
    for _ in range(repeats or SETUP_REPEATS):
        started = now()
        result = step()
        durations.append(now() - started)
    return durations, result


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    ``ru_maxrss`` is in KiB on Linux; the children figure is the largest
    peak among the worker processes this process waited for.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def typical_latency(latencies: dict[object, list[float]]) -> float:
    """Geometric mean over the kinds of unit of each kind's median.

    A median over all units at once sits in the gap between two cost
    clusters (serve-stream's DC keys at ~20 ms, its next ones at
    ~30 ms) and jumps across it from run to run; a median per kind
    drops the slow rounds, and the geometric mean weighs every kind
    alike, however much it costs.
    """
    return math.exp(statistics.fmean(
        math.log(median(values)) for values in latencies.values()))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of every *kind* (``end_to_end`` or ``per_layer``)
    metric of ``BENCHMARK.json``, in its order."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def end_to_end_metrics(run: WorkloadRun, import_s: float,
                       rss_mb: float) -> dict:
    """The end-to-end metric block of the result line."""
    values = {
        "setup_s": import_s + median(run.setup_step_s),
        "peak_rss_mb": rss_mb,
        "verdicts_per_s": median(run.round_rates),
        "op_latency_ms": 1e3 * typical_latency(run.op_latencies),
        "faults_detected": run.faults_detected,
        "tests_applied": run.tests_applied,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()}
