"""Independent DC oracle for linear netlists (rc-ladder, active-filter).

A plain modified-nodal solve written from the netlist's element list —
resistors, VCCSs and voltage sources, capacitors open — with a bridging
fault stamped as one resistor of its ``impact`` between its two nodes.
It shares no code with ``repro.analysis``: no compiled circuit, no
overlay, no Newton loop, no gmin.  The benchmark compares the program's
DC deviations against it.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.elements import (
    VCCS,
    Capacitor,
    Resistor,
    VoltageSource,
    is_ground,
)
from repro.faults.bridging import BridgingFault
from repro.testgen.procedures import DCProcedure
from repro.waveforms import DCWave

#: Agreement bound on |program deviation - oracle deviation|, as a
#: share of the box half-width.
DEVIATION_TOLERANCE = 1e-5


class OracleUnsupported(Exception):
    """The netlist or configuration is outside the oracle's scope."""


def _source_value(source: VoltageSource) -> float:
    wave = source.waveform
    if isinstance(wave, (int, float)):
        return float(wave)
    if isinstance(wave, DCWave):
        return float(wave.level)
    raise OracleUnsupported(f"source {source.name} is not a DC source")


def node_voltages(circuit, overrides: dict[str, float],
                  bridge: tuple[str, str, float] | None = None
                  ) -> dict[str, float]:
    """DC node voltages of a linear *circuit*.

    Args:
        circuit: netlist of R, C, VCCS and V elements only.
        overrides: voltage-source name -> level (the stimulus).
        bridge: optional (node_a, node_b, resistance) defect.
    """
    nodes: list[str] = []
    for element in circuit:
        for node in element.nodes:
            if not is_ground(node) and node not in nodes:
                nodes.append(node)
    index = {node: i for i, node in enumerate(nodes)}
    sources = [e for e in circuit if isinstance(e, VoltageSource)]
    size = len(nodes) + len(sources)
    a = np.zeros((size, size))
    z = np.zeros(size)

    def conductance(n1: str, n2: str, g: float) -> None:
        for p, q, sign in ((n1, n1, 1.0), (n2, n2, 1.0),
                           (n1, n2, -1.0), (n2, n1, -1.0)):
            if p in index and q in index:
                a[index[p], index[q]] += sign * g

    for element in circuit:
        if isinstance(element, Resistor):
            conductance(element.n1, element.n2, 1.0 / element.resistance)
        elif isinstance(element, VCCS):
            # gm * V(cp, cn) leaves np and enters nn.
            for row, rsign in ((element.np, 1.0), (element.nn, -1.0)):
                for col, csign in ((element.cp, 1.0), (element.cn, -1.0)):
                    if row in index and col in index:
                        a[index[row], index[col]] += rsign * csign * element.gm
        elif isinstance(element, Capacitor):
            continue
        elif not isinstance(element, VoltageSource):
            raise OracleUnsupported(
                f"element {element.name} ({type(element).__name__}) is not "
                "linear R/C/VCCS/V")
    for k, source in enumerate(sources):
        row = len(nodes) + k
        for node, sign in ((source.n1, 1.0), (source.n2, -1.0)):
            if node in index:
                a[index[node], row] += sign
                a[row, index[node]] += sign
        z[row] = (overrides[source.name] if source.name in overrides
                  else _source_value(source))
    if bridge is not None:
        conductance(bridge[0], bridge[1], 1.0 / bridge[2])
    x = np.linalg.solve(a, z)
    voltages = {node: float(x[i]) for node, i in index.items()}
    voltages.update({"0": 0.0, "gnd": 0.0})
    return voltages


def dc_deviations(circuit, configuration, fault, vector) -> np.ndarray:
    """Oracle deviations (faulty minus nominal) of one DC verdict."""
    procedure = configuration.procedure
    if not isinstance(procedure, DCProcedure):
        raise OracleUnsupported(f"{configuration.name} is not a DC test")
    if not isinstance(fault, BridgingFault):
        raise OracleUnsupported(f"{fault.fault_id} is not a bridge")
    if any(probe.kind != "v" for probe in procedure.probes):
        raise OracleUnsupported(f"{configuration.name} probes a current")
    params = configuration.parameters.to_dict(vector)
    overrides = {procedure.source: float(params[procedure.level_param])}
    nominal = node_voltages(circuit, overrides)
    faulty = node_voltages(circuit, overrides,
                           (fault.node_a, fault.node_b, fault.impact))
    return np.array([faulty[p.target] - nominal[p.target]
                     for p in procedure.probes])


def check_dc_verdict(circuit, configuration, fault, vector,
                     deviations, boxes, value) -> list[str]:
    """Compare one program verdict against the oracle.

    Returns the problems found (empty when the verdict agrees): the
    deviation must agree within ``DEVIATION_TOLERANCE`` of the box, and
    the detection decision must agree wherever the oracle's ``S_f``
    lies outside that margin.
    """
    expected = dc_deviations(circuit, configuration, fault, vector)
    boxes = np.asarray(boxes, float)
    deviations = np.asarray(deviations, float)
    problems = []
    error = np.abs(deviations - expected) / boxes
    if not np.all(error <= DEVIATION_TOLERANCE):
        problems.append(
            f"{configuration.name}/{fault.fault_id} at {list(vector)}: "
            f"deviation {deviations.tolist()} vs oracle "
            f"{expected.tolist()} (error {float(error.max()):.3g} box)")
    s_oracle = float(np.min(1.0 - np.abs(expected) / boxes))
    if abs(s_oracle) > DEVIATION_TOLERANCE and \
            (value < 0.0) != (s_oracle < 0.0):
        problems.append(
            f"{configuration.name}/{fault.fault_id} at {list(vector)}: "
            f"detected={value < 0.0} but oracle S_f={s_oracle:.6g}")
    return problems


def detected_count_bounds(circuit, configuration, faults, vector,
                          boxes) -> tuple[int, int]:
    """Oracle range of a DC configuration's detected count.

    (faults detected outside the margin, that plus the faults inside
    it): a correct count lies in this closed range.
    """
    boxes = np.asarray(boxes, float)
    sure = borderline = 0
    for fault in faults:
        expected = dc_deviations(circuit, configuration, fault, vector)
        s_oracle = float(np.min(1.0 - np.abs(expected) / boxes))
        if abs(s_oracle) <= DEVIATION_TOLERANCE:
            borderline += 1
        elif s_oracle < 0.0:
            sure += 1
    return sure, sure + borderline
