"""Self-test of the output checks: none of them is vacuous.

    python3 perfbench/selftest.py

Builds a small real output of each workload (linear and one nonlinear
serving key, the rc-ladder flow twice, four linear campaign cells
twice), then requires every check in ``checks.py`` to

* pass on that output, and
* reject each copy of it with one thing altered that the check is meant
  to catch: one deviation, one bit of an ``S_f``, one covered-fault
  claim, one verdict digest, and so on.

Exits 0 when every expectation holds, 1 otherwise.  Takes ~15 s.
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import generate_compact  # noqa: E402
import serve_stream  # noqa: E402
from common import WorkloadRun  # noqa: E402
from repro.scenarios import parse_spec, run_campaign  # noqa: E402

SEED = 7


def flip_bit(value: float, bit: int) -> float:
    """*value* with one bit of its IEEE-754 binary64 form flipped."""
    (raw,) = struct.unpack("<Q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", raw ^ (1 << bit)))
    return flipped


# ----------------------------------------------------------------------
# small real outputs
# ----------------------------------------------------------------------
def serve_output() -> dict:
    keys, macros = serve_stream.build_universe()
    keys = [k for k in keys if k.macro in ("rc-ladder", "active-filter")
            or (k.macro, k.configuration) == ("ota", "dc-transfer")]
    pool = serve_stream.EnginePool(capacity=8)
    served = []
    asyncio.run(serve_stream._round(
        pool, serve_stream.build_stream(keys, SEED), 0, served))
    return {"keys": keys, "macros": macros, "served": served, "seed": SEED,
            "fresh": checks.fresh_screens(served, macros)}


def gc_output() -> dict:
    targets = [t for t in generate_compact.setup() if t.name == "rc-ladder"]
    rounds = [[generate_compact.run_flow(t, SEED, WorkloadRun())
               for t in targets] for _ in range(2)]
    return {"targets": targets, "rounds": rounds, "seed": SEED}


SMALL_SWEEP = {
    "corners": ["ss", "rlo"],
    "campaign": {"name": "selftest", "mode": "screen"},
    "topologies": [
        {"family": "rc-ladder", "axes": {"n_sections": [2]}},
        {"family": "active-filter",
         "axes": {"n_sections": [8], "fault_top_n": [12]}},
    ],
    "dictionaries": [{"label": "ifa-top3", "kind": "ifa", "top_n": 3}],
}


def campaign_output() -> dict:
    spec = parse_spec(SMALL_SWEEP)
    rounds = [run_campaign(spec, n_jobs=1) for _ in range(2)]
    return {"spec": spec, "cells": spec.cells(), "rounds": rounds,
            "seed": SEED}


# ----------------------------------------------------------------------
# altered copies
# ----------------------------------------------------------------------
def _with_verdict(state, pick, alter) -> dict:
    """Copy of *state* with the first verdict *pick* accepts altered."""
    served = list(state["served"])
    for i, item in enumerate(served):
        verdicts = list(item.response.verdicts)
        for j, verdict in enumerate(verdicts):
            if pick(item, verdict):
                verdicts[j] = dataclasses.replace(
                    verdict, record=alter(verdict.record))
                response = dataclasses.replace(item.response,
                                               verdicts=tuple(verdicts))
                served[i] = dataclasses.replace(item, response=response)
                return {**state, "served": served}
    raise AssertionError("no verdict to alter")


def _linear(item, verdict) -> bool:
    return (item.key.macro, item.key.configuration) == ("rc-ladder", "dc-out")


def serve_mutations(state):
    def deviation(record):
        shifted = record.deviations[0] + 1e-3 * record.boxes[0]
        return dataclasses.replace(record,
                                   deviations=(shifted,)
                                   + record.deviations[1:])

    def sf_bit(record):
        return dataclasses.replace(record, value=flip_bit(record.value, 0))

    def box(record):
        return dataclasses.replace(record, boxes=(0.0,) + record.boxes[1:])

    hit = lambda item, verdict: verdict.cached  # noqa: E731
    any_verdict = lambda item, verdict: True  # noqa: E731
    return [
        ("one deviation", _with_verdict(state, _linear, deviation),
         {"serve_verdict_properties", "serve_linear_oracle",
          "serve_history_free"}),
        ("one bit of an S_f", _with_verdict(state, any_verdict, sf_bit),
         {"serve_verdict_properties", "serve_history_free"}),
        ("one bit of a cache hit's S_f", _with_verdict(state, hit, sf_bit),
         {"serve_hits_match_first"}),
        ("one box", _with_verdict(state, any_verdict, box),
         {"serve_verdict_properties"}),
    ]


def _with_flow(state, round_index, change) -> dict:
    rounds = [list(flows) for flows in state["rounds"]]
    rounds[round_index][0] = change(rounds[round_index][0])
    return {**state, "rounds": rounds}


def gc_mutations(state):
    def out_of_bounds(flow):
        compaction = flow.compaction
        group = compaction.groups[0]
        test = dataclasses.replace(group.collapsed_test)
        bounds = test.configuration.parameters.bounds
        object.__setattr__(test, "values", bounds[:, 1] + 1.0)
        groups = (dataclasses.replace(group, collapsed_test=test),) \
            + compaction.groups[1:]
        return dataclasses.replace(
            flow, compaction=dataclasses.replace(compaction, groups=groups))

    def more_tests(flow):
        return dataclasses.replace(flow, compaction=dataclasses.replace(
            flow.compaction, n_original_tests=0))

    def covered_claim(flow):
        entries = list(flow.coverage.entries)
        k = next(i for i, e in enumerate(entries) if not e.covered)
        entries[k] = dataclasses.replace(
            entries[k], covered=True,
            detecting_tests=(str(flow.compaction.tests[0]),))
        return dataclasses.replace(flow, coverage=dataclasses.replace(
            flow.coverage, entries=tuple(entries)))

    def s_opt_bit(flow):
        groups = list(flow.compaction.groups)
        for g, group in enumerate(groups):
            for m, (member, screening) in enumerate(
                    zip(group.members, group.screenings)):
                if screening.accepted and screening.sensitivity_optimal < 0:
                    s_opt = flip_bit(screening.sensitivity_optimal, 62)
                    members = list(group.members)
                    screenings = list(group.screenings)
                    members[m] = dataclasses.replace(
                        member, sensitivity_at_critical=s_opt)
                    screenings[m] = dataclasses.replace(
                        screening, sensitivity_optimal=s_opt)
                    groups[g] = dataclasses.replace(
                        group, members=tuple(members),
                        screenings=tuple(screenings))
                    return dataclasses.replace(
                        flow, compaction=dataclasses.replace(
                            flow.compaction, groups=tuple(groups)))
        raise AssertionError("no accepted member with S_opt < 0")

    def probability(flow):
        grades = list(flow.mc_grades)
        k = next(i for i, (_, r) in enumerate(grades)
                 if not isinstance(r, Exception))
        test, report = grades[k]
        entries = (dataclasses.replace(report.entries[0],
                                       detection_probability=1.5),) \
            + report.entries[1:]
        grades[k] = (test, dataclasses.replace(report, entries=entries))
        return dataclasses.replace(flow, mc_grades=grades)

    def failed_dc_grade(flow):
        grades = list(flow.mc_grades)
        dc_test = next(t for t, r in grades if not isinstance(r, Exception))
        k = next(i for i, (_, r) in enumerate(grades)
                 if isinstance(r, Exception))
        grades[k] = (dc_test, grades[k][1])
        return dataclasses.replace(flow, mc_grades=grades)

    def other_round(flow):
        return covered_claim(flow)

    return [
        ("a compact test outside its bounds",
         _with_flow(state, 0, out_of_bounds), {"gc_tests_in_bounds"}),
        ("the generated-test count", _with_flow(state, 0, more_tests),
         {"gc_compact_not_larger"}),
        ("one covered-fault claim", _with_flow(state, 0, covered_claim),
         {"gc_covered_claims"}),
        ("one bit of a member's S_opt", _with_flow(state, 0, s_opt_bit),
         {"gc_member_criterion"}),
        ("one detection probability", _with_flow(state, 0, probability),
         {"gc_mc_grades"}),
        ("a failed MC grade of a DC test",
         _with_flow(state, 0, failed_dc_grade), {"gc_mc_grades"}),
        ("round 1's coverage", _with_flow(state, 1, other_round),
         {"gc_rounds_agree"}),
    ]


def _with_record(state, round_index, pick, **changes) -> dict:
    rounds = list(state["rounds"])
    result = rounds[round_index]
    records = list(result.records)
    k = next(i for i, r in enumerate(records) if pick(r))
    records[k] = dataclasses.replace(records[k], **changes)
    rounds[round_index] = dataclasses.replace(result, records=tuple(records))
    return {**state, "rounds": rounds}


def campaign_mutations(state):
    sampled = {state["cells"][i].scenario_id
               for i in checks.rerun_sample(state["cells"], state["seed"])}
    in_sample = lambda r: r.scenario_id in sampled  # noqa: E731
    first = lambda r: True  # noqa: E731
    digest = "0" * 32
    record = next(r for r in state["rounds"][0].records
                  if r.family == "active-filter")
    configurations = ({**record.configurations[0],
                       "n_detected": record.n_faults + 1},) \
        + record.configurations[1:]
    return [
        ("one cell status", _with_record(state, 0, first, status="failed"),
         {"campaign_cells_ok"}),
        ("round 1's verdict digest",
         _with_record(state, 1, first, verdict_digest=digest),
         {"campaign_rounds_agree"}),
        ("a sampled cell's verdict digest",
         _with_record(state, 0, in_sample, verdict_digest=digest),
         {"campaign_rerun"}),
        ("a linear cell's detected count",
         _with_record(state, 0, lambda r: r is record,
                      configurations=configurations),
         {"campaign_linear_oracle"}),
    ]


# ----------------------------------------------------------------------
def main() -> int:
    cases = (
        ("serve-stream", serve_output, serve_mutations),
        ("generate-compact", gc_output, gc_mutations),
        ("campaign-sweep", campaign_output, campaign_mutations),
    )
    failures = 0
    for workload, build, mutate in cases:
        state = build()
        mutations = mutate(state)
        for check in checks.CHECKS[workload]:
            name = check.__name__
            problems = check(state)
            status = "ok" if not problems else "FAIL"
            failures += bool(problems)
            print(f"{status:4s} {name} accepts the real output"
                  + (f": {problems[0]}" if problems else ""))
            mine = [(label, altered) for label, altered, targets
                    in mutations if name in targets]
            if not mine:
                failures += 1
                print(f"FAIL {name} has no altered copy to reject")
            for label, altered in mine:
                rejected = bool(check(altered))
                failures += not rejected
                print(f"{'ok' if rejected else 'FAIL':4s} {name} rejects "
                      f"{label}")
    print("self-test", "passed" if not failures else
          f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
