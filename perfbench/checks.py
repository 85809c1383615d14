"""Output checks of the three workloads, made apart from the program.

Every check takes a workload's output state and returns a list of
problems (empty = pass).  They run after the timed phase.  The
self-test (``perfbench/selftest.py``) runs each check on a real output
and on copies with one thing altered, and requires it to pass the first
and reject every copy, so no check is vacuous.

Checks recompute with the program only through fresh objects (a new
``TestExecutor``, a new ``MacroTestbench``, ``run_cell``), never with
the state the workload ran on; the linear oracle (``oracle.py``) shares
no code with the solver at all.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from oracle import (
    OracleUnsupported,
    check_dc_verdict,
    detected_count_bounds,
)
from repro.errors import TestGenerationError
from repro.scenarios import run_cell
from repro.serve import VerdictRecord
from repro.testgen import MacroTestbench, TestExecutor

#: Deviation the program assigns to a fault it cannot simulate at all
#: (``testgen/execution.py``): a failed operation, never a detection.
UNSIMULATABLE_DEVIATION = 1e9

#: Families whose netlists the linear oracle can solve.
LINEAR_MACROS = ("rc-ladder", "active-filter")


def _bits(record: VerdictRecord) -> str:
    """Exact text of a verdict (``repr`` floats keep every bit)."""
    return json.dumps(record.to_dict())


def has_unsimulatable(record: VerdictRecord) -> bool:
    return UNSIMULATABLE_DEVIATION in record.deviations


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
def _configuration(macros, macro: str, name: str):
    for configuration in macros[macro].test_configurations("fast"):
        if configuration.name == name:
            return configuration
    raise KeyError(f"{macro} has no configuration {name}")


def _fault(macros, macro: str, fault_id: str):
    for fault in macros[macro].fault_dictionary():
        if fault.fault_id == fault_id:
            return fault
    raise KeyError(f"{macro} has no fault {fault_id}")


def serve_verdict_properties(state) -> list[str]:
    """S_f = min_i(1 - |d_i|/box_i), detected <=> S_f < 0, boxes > 0."""
    problems = []
    for served in state["served"]:
        for verdict in served.response.verdicts:
            record = verdict.record
            where = (f"{served.key.configuration}/"
                     f"{record.fault_id}")
            boxes = np.asarray(record.boxes, float)
            if not np.all(boxes > 0.0):
                problems.append(f"{where}: box not positive {record.boxes}")
                continue
            components = 1.0 - np.abs(np.asarray(record.deviations)) / boxes
            if tuple(float(c) for c in components) != record.components:
                problems.append(f"{where}: components disagree with "
                                "deviations and boxes")
            if record.value != float(np.min(components)):
                problems.append(f"{where}: S_f {record.value!r} is not "
                                f"min components {np.min(components)!r}")
            if verdict.to_dict()["detected"] != (record.value < 0.0):
                problems.append(f"{where}: detected flag disagrees with "
                                "S_f")
    return problems


def serve_linear_oracle(state) -> list[str]:
    """rc-ladder / active-filter DC verdicts against the nodal oracle."""
    macros = state["macros"]
    problems = []
    checked = 0
    for served in state["served"]:
        key = served.key
        if key.macro not in LINEAR_MACROS:
            continue
        configuration = _configuration(macros, key.macro, key.configuration)
        for verdict in served.response.verdicts:
            record = verdict.record
            fault = _fault(macros, key.macro, record.fault_id)
            try:
                problems += check_dc_verdict(
                    macros[key.macro].circuit, configuration, fault,
                    key.vector, record.deviations, record.boxes,
                    record.value)
            except OracleUnsupported:
                continue
            checked += 1
    if not checked:
        problems.append("no linear DC verdict reached the oracle")
    return problems


def fresh_screens(served, macros) -> dict:
    """Brand-new executors' canonical screens of what was served.

    For every (key, fault subset) a request asked, and for every key's
    whole fault set: (boxes, {fault id: exact verdict text}) of a new
    ``TestExecutor``'s first ``screen_faults(..., canonical=True)``.
    """
    wanted = {(s.key, s.request.fault_ids) for s in served}
    wanted |= {(s.key, s.key.fault_ids) for s in served}
    fresh = {}
    for key, fault_ids in sorted(wanted, key=repr):
        macro = macros[key.macro]
        executor = TestExecutor(
            macro.circuit,
            _configuration(macros, key.macro, key.configuration),
            macro.options)
        reports = executor.screen_faults(
            [_fault(macros, key.macro, fid) for fid in fault_ids],
            list(key.vector), canonical=True)
        boxes = tuple(float(b) for b in
                      executor.boxes(list(key.vector), canonical=True))
        fresh[key, fault_ids] = (boxes, {
            fid: _bits(VerdictRecord.from_report(fid, report))
            for fid, report in zip(fault_ids, reports)})
    return fresh


def request_failed(served, fresh) -> bool:
    """A request failed if a verdict is the unsimulatable sentinel or
    differs from a fresh screen of exactly the fault subset it asked."""
    _, expected = fresh[served.key, served.request.fault_ids]
    return any(has_unsimulatable(v.record)
               or _bits(v.record) != expected[v.record.fault_id]
               for v in served.response.verdicts)


def serve_history_free(state) -> list[str]:
    """Every served verdict equals a brand-new executor's screen of its
    key's fault set, the batch every key is first solved in."""
    fresh = state["fresh"]
    problems = []
    for served in state["served"]:
        key = served.key
        boxes, expected = fresh[key, key.fault_ids]
        if served.response.boxes != boxes:
            problems.append(f"{key.configuration}: served boxes "
                            f"{served.response.boxes} != fresh {boxes}")
        for verdict in served.response.verdicts:
            if _bits(verdict.record) != expected[verdict.record.fault_id]:
                problems.append(
                    f"{key.macro}/{key.configuration}/"
                    f"{verdict.record.fault_id} at {key.vector}: "
                    "served verdict differs from a fresh screen")
    return problems


def serve_hits_match_first(state) -> list[str]:
    """A cache hit equals the first response for its key (per round)."""
    first: dict[tuple, str] = {}
    problems = []
    for served in state["served"]:
        for verdict in served.response.verdicts:
            slot = (served.round_index, verdict.key)
            bits = _bits(verdict.record)
            if slot not in first:
                first[slot] = bits
            elif verdict.cached and bits != first[slot]:
                problems.append(f"{verdict.record.fault_id}: cache hit "
                                "differs from the first response")
    return problems


SERVE_CHECKS = (serve_verdict_properties, serve_linear_oracle,
                serve_history_free, serve_hits_match_first)


# ----------------------------------------------------------------------
# generate-compact
# ----------------------------------------------------------------------
def _fresh_testbench(target) -> MacroTestbench:
    return MacroTestbench(target.macro.circuit, target.configurations,
                          target.macro.options)


def gc_tests_in_bounds(state) -> list[str]:
    problems = []
    for flows in state["rounds"]:
        for flow in flows:
            for test in flow.compaction.tests:
                bounds = test.configuration.parameters.bounds
                values = np.asarray(test.values, float)
                if np.any(values < bounds[:, 0]) or \
                        np.any(values > bounds[:, 1]):
                    problems.append(f"{flow.target.name}: {test} outside "
                                    f"{bounds.tolist()}")
    return problems


def gc_compact_not_larger(state) -> list[str]:
    problems = []
    for flows in state["rounds"]:
        for flow in flows:
            generated = flow.generation.n_detected
            compact = flow.compaction.n_compact_tests
            if flow.compaction.n_original_tests != generated or \
                    compact > generated:
                problems.append(f"{flow.target.name}: {compact} compact "
                                f"tests from {generated} generated")
    return problems


def gc_covered_claims(state) -> list[str]:
    """Every covered fault is detected by its covering test, afresh."""
    problems = []
    for flow in state["rounds"][0]:
        testbench = _fresh_testbench(flow.target)
        faults = {f.fault_id: f for f in flow.target.faults}
        tests = defaultdict(list)
        for test in flow.compaction.tests:
            tests[str(test)].append(test)
        for entry in flow.coverage.entries:
            if not entry.covered:
                continue
            name = entry.detecting_tests[0]
            values = [testbench.evaluate_test(faults[entry.fault_id],
                                              test).value
                      for test in tests.get(name, ())]
            if not values or min(values) >= 0.0:
                problems.append(f"{flow.target.name}: {entry.fault_id} "
                                f"claimed covered by {name}, fresh S_f "
                                f"{values}")
    return problems


def gc_member_criterion(state) -> list[str]:
    """Accepted members meet S_col <= S_opt + delta (1 - S_opt), afresh."""
    problems = []
    for flow in state["rounds"][0]:
        testbench = _fresh_testbench(flow.target)
        delta = flow.compaction.settings.delta
        for group in flow.compaction.groups:
            for member, screening in zip(group.members, group.screenings):
                if not screening.accepted:
                    continue
                s_opt = screening.sensitivity_optimal
                if s_opt != member.sensitivity_at_critical:
                    problems.append(f"{screening.fault_id}: screened S_opt "
                                    "differs from the generated one")
                probe = member.fault.with_impact(member.critical_impact)
                s_col = testbench.evaluate_test(
                    probe, group.collapsed_test).value
                if not s_col <= s_opt + delta * (1.0 - s_opt) + 1e-12:
                    problems.append(
                        f"{flow.target.name}/{screening.fault_id}: "
                        f"S_col {s_col:.6g} > S_opt {s_opt:.6g} + delta "
                        "slack")
    return problems


def _is_transient(test) -> bool:
    return not getattr(test.configuration.procedure, "supports_screening",
                       False)


def gc_mc_grades(state) -> list[str]:
    """MC probabilities in [0, 1]; the only failures are the known one."""
    problems = []
    for flows in state["rounds"]:
        for flow in flows:
            for test, report in flow.mc_grades:
                if isinstance(report, Exception):
                    if not (isinstance(report, TestGenerationError)
                            and _is_transient(test)):
                        problems.append(f"{flow.target.name}: MC grade of "
                                        f"{test} failed: {report!r}")
                    continue
                for entry in report.entries:
                    p = entry.detection_probability
                    if not 0.0 <= p <= 1.0:
                        problems.append(f"{entry.fault_id}: detection "
                                        f"probability {p}")
    return problems


def _flow_digest(flow) -> str:
    tests = [(t.config_name, [float(v) for v in t.values])
             for t in flow.compaction.tests]
    coverage = [(e.fault_id, e.covered, e.best_sensitivity)
                for e in flow.coverage.entries]
    return repr((tests, coverage))


def gc_rounds_agree(state) -> list[str]:
    """Generation and compaction are deterministic across rounds."""
    first = [_flow_digest(f) for f in state["rounds"][0]]
    return [f"round {i}: {flow.target.name} differs from round 0"
            for i, flows in enumerate(state["rounds"][1:], start=1)
            for flow, digest in zip(flows, first)
            if _flow_digest(flow) != digest]


GC_CHECKS = (gc_tests_in_bounds, gc_compact_not_larger, gc_covered_claims,
             gc_member_criterion, gc_mc_grades, gc_rounds_agree)


# ----------------------------------------------------------------------
# campaign-sweep
# ----------------------------------------------------------------------
#: Cells re-run in-process per check.
RERUN_SAMPLE = 3


def campaign_cells_ok(state) -> list[str]:
    return [f"{r.family} {r.corner} {r.dictionary}: {r.status} {r.error}"
            for result in state["rounds"] for r in result.records
            if r.status != "ok"]


def campaign_rounds_agree(state) -> list[str]:
    first = [r.to_json() for r in state["rounds"][0].records]
    return [f"round {i}: cell {r.scenario_id} differs from round 0"
            for i, result in enumerate(state["rounds"][1:], start=1)
            for r, line in zip(result.records, first)
            if r.to_json() != line]


def rerun_sample(cells, seed: int) -> list[int]:
    """Seeded indices of the cells the rerun check repeats."""
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(
        len(cells), size=min(RERUN_SAMPLE, len(cells)), replace=False))


def campaign_rerun(state) -> list[str]:
    """A seeded sample of cells re-run in-process reproduces bitwise."""
    cells = state["cells"]
    records = {r.scenario_id: r for r in state["rounds"][0].records}
    problems = []
    for index in rerun_sample(cells, state["seed"]):
        cell = cells[index]
        again = run_cell(cell)
        if again.to_json() != records[cell.scenario_id].to_json():
            problems.append(f"cell {cell.scenario_id} ({cell.family} "
                            f"{cell.corner.name}): re-run differs")
    return problems


def campaign_linear_oracle(state) -> list[str]:
    """Each linear cell's DC detected counts, from the corner netlist."""
    records = {r.scenario_id: r for r in state["rounds"][0].records}
    problems = []
    checked = 0
    for cell in state["cells"]:
        if cell.family not in LINEAR_MACROS:
            continue
        record = records[cell.scenario_id]
        macro = cell.variant.build_macro()
        faults = list(cell.dictionary.derive(macro))
        circuit = cell.corner.apply(macro.circuit,
                                    variation=macro.process_variation)
        counts = {c["name"]: c["n_detected"] for c in record.configurations}
        for configuration in macro.test_configurations(box_mode="fast"):
            vector = [p.seed for p in configuration.parameters]
            boxes = TestExecutor(circuit, configuration,
                                 macro.options).boxes(vector)
            try:
                low, high = detected_count_bounds(
                    circuit, configuration, faults, vector, boxes)
            except OracleUnsupported:
                continue
            checked += 1
            count = counts[configuration.description.name]
            if not low <= count <= high:
                problems.append(
                    f"{cell.family} {dict(cell.variant.parameters)} "
                    f"{cell.corner.name} {cell.dictionary.label} "
                    f"{configuration.name}: detected {count}, oracle "
                    f"[{low}, {high}]")
    if not checked:
        problems.append("no linear DC cell reached the oracle")
    return problems


CAMPAIGN_CHECKS = (campaign_cells_ok, campaign_rounds_agree, campaign_rerun,
                   campaign_linear_oracle)

CHECKS = {
    "serve-stream": SERVE_CHECKS,
    "generate-compact": GC_CHECKS,
    "campaign-sweep": CAMPAIGN_CHECKS,
}


def run_checks(workload: str, state) -> list[str]:
    problems = []
    for check in CHECKS[workload]:
        problems += [f"{check.__name__}: {p}" for p in check(state)]
    return problems
