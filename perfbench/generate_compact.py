"""generate-compact: the paper's flow, generate -> collapse -> grade.

Targets are rc-ladder (its whole dictionary) and the IFA top-N
dictionaries (``DictionarySpec(kind="ifa", top_n=TOP_N)``) of ota,
two-stage-opamp and folded-cascode-ota.  Per target, one round runs

1. ``generate_tests`` (n_jobs=1: Brent/Powell over the warm overlay
   Newton path),
2. ``collapse_test_set`` at delta = ``DELTA`` (§4.1),
3. deterministic ``evaluate_coverage`` of the compact set,
4. Monte Carlo grading (``mode="detection_probability"``) of each
   compact test as its own operation.

The seed sets the Monte Carlo sample seed of step 4; the dictionaries
and generation are deterministic, so every round and every seed grades
the same compact tests.  MC grading of a test of a transient
configuration raises ``TestGenerationError`` today (its procedure has
no batched screening protocol); those operations count as failed, and
their share is the same in every run.

Each round builds fresh testbenches, so rounds do the same work.  The
unit a user submits, timed by ``op_latency_ms``, is one target's flow
(steps 1-4 on one dictionary): four per round, each ~3 s, dominated by
the optimization of the target's transient configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from common import WorkloadRun, now, timed_setup
from repro.compaction import (
    CompactionSettings,
    collapse_test_set,
    evaluate_coverage,
)
from repro.errors import ReproError
from repro.macros.registry import get_macro
from repro.scenarios import DictionarySpec
from repro.testgen import MacroTestbench, generate_tests

#: (macro, IFA top-N trim or None for the whole dictionary).
TARGETS = (("rc-ladder", None), ("ota", 1), ("two-stage-opamp", 1),
           ("folded-cascode-ota", 1))
#: Collapse tolerance (paper's delta).
DELTA = 0.1
#: Process samples per Monte Carlo grade.
MC_SAMPLES = 64


@dataclass
class Target:
    name: str
    macro: object
    faults: tuple
    configurations: tuple


@dataclass
class FlowResult:
    """One target's outputs in one round."""

    target: Target
    generation: object
    compaction: object
    coverage: object
    mc_grades: list = field(default_factory=list)  # (test, report | error)


def setup() -> list[Target]:
    """Macros, dictionaries and configurations of every target."""
    targets = []
    for name, top_n in TARGETS:
        macro = get_macro(name)
        if top_n is None:
            faults = tuple(macro.fault_dictionary())
        else:
            faults = tuple(DictionarySpec(label=f"ifa-top{top_n}",
                                          kind="ifa", top_n=top_n)
                           .derive(macro))
        targets.append(Target(name, macro, faults,
                              tuple(macro.test_configurations("fast"))))
    return targets


def run_flow(target: Target, mc_seed: int, out: WorkloadRun) -> FlowResult:
    """One target's flow; counts its operations into *out*."""
    macro = target.macro
    testbench = MacroTestbench(macro.circuit, target.configurations,
                               macro.options)
    generation = generate_tests(macro.circuit, target.configurations,
                                target.faults, options=macro.options,
                                n_jobs=1)
    compaction = collapse_test_set(generation, testbench,
                                   CompactionSettings(delta=DELTA))
    coverage = evaluate_coverage(testbench, target.faults,
                                 compaction.tests)
    out.attempted += 3
    result = FlowResult(target, generation, compaction, coverage)
    for test in compaction.tests:
        out.attempted += 1
        try:
            report = evaluate_coverage(
                testbench, target.faults, [test],
                mode="detection_probability", n_samples=MC_SAMPLES,
                seed=mc_seed)
        except ReproError as exc:
            out.failed += 1
            report = exc
        result.mc_grades.append((test, report))
    return result


def run(seed: int, seconds: float, tracer) -> tuple[WorkloadRun, dict]:
    durations, targets = timed_setup(setup)
    out = WorkloadRun(setup_step_s=durations)
    rounds: list[list[FlowResult]] = []
    tracer.mark()
    started = now()
    while not rounds or now() - started < seconds:
        round_started = now()
        flows = []
        for target in targets:
            flow_started = now()
            flows.append(run_flow(target, seed, out))
            out.op_latencies.setdefault(target.name, []).append(
                now() - flow_started)
        rounds.append(flows)
        seconds_taken = now() - round_started
        out.round_rates.append(sum(len(t.faults) for t in targets)
                               / seconds_taken)
    tracer.timed_done()
    out.faults_detected = sum(f.coverage.n_covered for f in rounds[0])
    out.tests_applied = sum(f.compaction.n_compact_tests for f in rounds[0])
    return out, {"targets": targets, "rounds": rounds}
