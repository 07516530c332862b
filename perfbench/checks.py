"""Output checks, written against the method's properties.

Nothing here calls ``packet_is_legal``, the ``repro.verify`` checkers or
the lint rules: packet limits come straight from the
:class:`~repro.machine.description.MachineDescription` fields and the
instructions' ISA specs, and served outputs are compared with the float
reference interpreter (:class:`repro.graph.execute.ReferenceExecutor`)
and the per-sample int8 interpreter
(:class:`repro.runtime.executor.QuantizedExecutor`).  Each check returns
a list of problems; an empty list means the artefact passed.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import numpy as np

#: Softmax rows must sum to 1 within float64 rounding of a 4000-wide sum.
ROW_SUM_TOLERANCE = 1e-9

#: Allowed error of the logits recovered from a served softmax, in
#: int8 steps of the logits' own calibrated range (``bound / 127``, so
#: 127 steps are the whole range).  The int8 pipeline rounds to a step
#: after every operator and the rounding error accumulates with depth:
#: on 30 seeded feeds per model the worst case was 59 steps (tinybert),
#: 37 (mobilenet_v3) and 31 (decoder_tiny).  96 steps leave 1.6 times
#: that and reject a row that has lost its shape (uniform, or another
#: sample's) wherever the float logits span more than 96 steps
#: (mobilenet_v3 and decoder_tiny rows reach 106-154).  tinybert's two
#: logits move by up to 80% of their float gap in int8, so there only
#: the bit-identity check can tell a uniform row from a served one.
LOGIT_STEPS = 96


def check_packets(compiled) -> List[str]:
    """Packet limits, body coverage and read-after-write order."""
    machine = compiled.machine
    problems: List[str] = []
    for cn in compiled.nodes:
        where = f"{compiled.graph.name}/{machine.name}/{cn.node.name}"
        position: Dict[int, int] = {}
        for index, packet in enumerate(cn.packets):
            insts = list(packet.instructions)
            if len(insts) > machine.max_packet_slots:
                problems.append(
                    f"{where}: packet {index} holds {len(insts)} "
                    f"instructions, limit {machine.max_packet_slots}"
                )
            for resource, used in Counter(
                inst.spec.resource for inst in insts
            ).items():
                if used > machine.resource_limits[resource]:
                    problems.append(
                        f"{where}: packet {index} issues {used} "
                        f"{resource.value}, limit "
                        f"{machine.resource_limits[resource]}"
                    )
            stores = sum(1 for inst in insts if inst.spec.is_store)
            if stores > machine.max_stores_per_packet:
                problems.append(
                    f"{where}: packet {index} issues {stores} stores, "
                    f"limit {machine.max_stores_per_packet}"
                )
            for inst in insts:
                if inst.uid in position:
                    problems.append(
                        f"{where}: instruction {inst.uid} packed twice"
                    )
                position[inst.uid] = index
        body = [inst.uid for inst in cn.schedule_body]
        if sorted(body) != sorted(position):
            missing = set(body) - set(position)
            extra = set(position) - set(body)
            problems.append(
                f"{where}: packets do not hold the schedule body "
                f"({len(missing)} missing, {len(extra)} extra)"
            )
            continue
        writer: Dict[str, int] = {}
        for inst in cn.schedule_body:
            at = position[inst.uid]
            for register in inst.read_registers:
                if writer.get(register, -1) > at:
                    problems.append(
                        f"{where}: instruction {inst.uid} reads "
                        f"{register} in packet {at}, before its writer "
                        f"in packet {writer[register]}"
                    )
            for register in inst.dests:
                writer[register] = at
    return problems


def decode_outputs(sample: Dict) -> Dict[str, np.ndarray]:
    """One served sample ``{name: {shape, dtype, data}}`` as arrays."""
    return {
        name: np.asarray(value["data"], dtype=value["dtype"]).reshape(
            value["shape"]
        )
        for name, value in sample.items()
    }


def check_softmax(name: str, probs: np.ndarray) -> List[str]:
    """Rows are non-negative and sum to 1."""
    problems = []
    if not np.all(probs >= 0.0):
        problems.append(f"{name}: negative probability")
    deviation = float(np.abs(probs.sum(axis=-1) - 1.0).max())
    if not deviation <= ROW_SUM_TOLERANCE:
        problems.append(f"{name}: a row sums to 1{deviation:+.3g}")
    return problems


def _centred_logits(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logits = np.log(probs)
    return logits - logits.mean(axis=-1, keepdims=True)


def check_reference(
    name: str, probs: np.ndarray, reference: np.ndarray, logit_step: float
) -> List[str]:
    """Recovered logits within ``LOGIT_STEPS`` int8 steps of the float
    reference's (softmax fixes logits up to a per-row constant, so both
    sides are centred first)."""
    error = np.abs(_centred_logits(probs) - _centred_logits(reference))
    worst = float(error.max()) if error.size else 0.0
    if not worst <= LOGIT_STEPS * logit_step:
        return [
            f"{name}: logits {worst / logit_step:.1f} int8 steps from "
            f"the float reference (tolerance {LOGIT_STEPS})"
        ]
    return []


def check_identical(
    name: str, got: np.ndarray, expected: np.ndarray
) -> List[str]:
    """Bit-identical to the per-sample int8 interpreter."""
    if got.dtype != expected.dtype or got.shape != expected.shape:
        return [f"{name}: {got.dtype}{got.shape} vs "
                f"{expected.dtype}{expected.shape}"]
    if not np.array_equal(got, expected):
        differing = int(np.count_nonzero(got != expected))
        return [f"{name}: {differing} value(s) differ from the "
                f"per-sample QuantizedExecutor"]
    return []
