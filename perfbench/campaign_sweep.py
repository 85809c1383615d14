"""campaign-sweep: a scenario campaign fanned out over two workers.

The sweep spec ``perfbench/sweep.toml`` crosses all five topology
families with two ±2σ corners and two IFA dictionary trims (28 cells).
One round is one ``run_campaign(spec, n_jobs=2)``: every cell builds,
lints, compiles and factorizes a fresh variant, then screens it cold
through ``screen_dictionary_sharded``.  The spec is the input; the seed
picks which cells the checks re-run in-process.

A traced run keeps its spans in one process: its rounds run with
n_jobs=1, and one untraced n_jobs=2 round after them gives the
fan-out's wall time (``scenarios.fanout_s``).
"""

from __future__ import annotations

from pathlib import Path

from common import WorkloadRun, now, timed_setup
from repro.scenarios import load_spec, run_campaign

SPEC_PATH = Path(__file__).resolve().parent / "sweep.toml"
#: Worker processes of the cell fan-out.
N_JOBS = 2


def setup():
    """Load and expand the sweep spec."""
    spec = load_spec(SPEC_PATH)
    return spec, spec.cells()


def run(seed: int, seconds: float, tracer) -> tuple[WorkloadRun, dict]:
    durations, (spec, cells) = timed_setup(setup)
    out = WorkloadRun(setup_step_s=durations)
    rounds = []
    tracer.mark()
    started = now()
    n_jobs = 1 if tracer.active else N_JOBS
    while not rounds or now() - started < seconds:
        round_started = now()
        result = run_campaign(spec, n_jobs=n_jobs)
        seconds_taken = now() - round_started
        out.op_latencies.setdefault("sweep", []).append(seconds_taken)
        rounds.append(result)
        out.attempted += len(result.records)
        out.failed += sum(1 for r in result.records if r.status != "ok")
        out.round_rates.append(sum(
            r.n_faults * len(r.configurations) for r in result.records)
            / seconds_taken)
    tracer.timed_done()
    state = {"spec": spec, "cells": cells, "rounds": rounds}
    if tracer.active:
        with tracer.paused():
            fanout_started = now()
            run_campaign(spec, n_jobs=N_JOBS)
            state["fanout_wall_s"] = now() - fanout_started
    first = rounds[0].records
    out.faults_detected = sum(r.n_detected for r in first)
    out.tests_applied = sum(len(r.configurations) for r in first)
    return out, state
