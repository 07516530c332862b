"""Self-test of the output checks: each must reject a corrupted artefact.

Usage: ``python3 perfbench/selftest.py`` (about 15 s; exits 1 if a
check accepts a corrupted artefact or rejects a clean one).

Compile-side checks run on fresh tinybert compiles for every machine;
serve-side checks run on a decoder_tiny batch-4 response built from
the per-sample int8 interpreter, exactly as the server encodes it.
"""

from __future__ import annotations

import json
import sys
from typing import List

import common  # pins the BLAS threads before NumPy loads
import numpy as np
from checks import check_packets


def _compiled(machine: str):
    from repro.compiler import CompilerOptions, GCD2Compiler
    from repro.models import build_model

    return GCD2Compiler(CompilerOptions(machine=machine)).compile(
        build_model("tinybert")
    )


def _overfill(compiled) -> None:
    """Move instructions into one packet past the slot limit."""
    limit = compiled.machine.max_packet_slots
    for cn in compiled.nodes:
        if sum(len(p.instructions) for p in cn.packets) > limit:
            target = cn.packets[0].instructions
            for packet in cn.packets[1:]:
                while packet.instructions and len(target) <= limit:
                    target.append(packet.instructions.pop())
            return
    raise AssertionError("no node large enough to overfill a packet")


def _drop_instruction(compiled) -> None:
    """Drop one DSP instruction from its packet."""
    compiled.nodes[0].packets[-1].instructions.pop()


def _reverse_packets(compiled) -> None:
    """Issue one node's packets in reverse, so readers precede writers."""
    cn = max(compiled.nodes, key=lambda cn: len(cn.packets))
    cn.packets.reverse()


def _serve_case():
    """(expected, class, clean samples) for decoder_tiny batch 4: the
    per-sample int8 interpreter's outputs, which the server must match."""
    import serve_load

    expected = serve_load.Expected("serve_decoder", seed=1)
    cls = ("decoder_tiny", 4)
    return expected, cls, expected.quantized[cls]


def _response(samples) -> bytes:
    """A response body, encoded the way the server encodes it."""
    from repro.serve.app import encode_arrays

    return json.dumps({
        "mode": "batched", "degradations": [],
        "outputs": [encode_arrays(outputs) for outputs in samples],
    }).encode()


def main() -> int:
    common.require_program()
    results: List[tuple] = []

    def expect(label: str, problems: List[str], rejected: bool) -> None:
        ok = bool(problems) == rejected
        results.append((label, ok, problems[:1]))

    for machine in ("hexagon698", "narrow64", "wide6"):
        expect(f"clean packets ({machine})",
               check_packets(_compiled(machine)), rejected=False)
        for corrupt in (_overfill, _drop_instruction, _reverse_packets):
            compiled = _compiled(machine)
            corrupt(compiled)
            expect(f"{corrupt.__doc__.strip()} ({machine})",
                   check_packets(compiled), rejected=True)

    from checks import check_identical, check_reference, check_softmax

    expected, cls, clean = _serve_case()
    name = "prefill_next_token"
    reference = expected.reference[cls][0][name]
    step = expected.logit_step[cls[0]][name]
    checks = {
        "row sum": lambda p: check_softmax(name, p),
        "reference": lambda p: check_reference(name, p, reference, step),
        "bit identity": lambda p: check_identical(name, p, clean[0][name]),
    }
    for label, check in checks.items():
        expect(f"clean output ({label})", check(clean[0][name]),
               rejected=False)
    expect("clean response", expected.check(cls, _response(clean)),
           rejected=False)

    def add_mass(samples):
        samples[0][name][..., 0, 0] += 1e-3

    def swap_extremes(samples):
        row = samples[0][name][..., 0, :].reshape(-1)
        lo, hi = int(np.argmin(row)), int(np.argmax(row))
        row[lo], row[hi] = row[hi], row[lo]
        samples[0][name][..., 0, :] = row

    def last_bit(samples):
        samples[0][name][..., 0, 0] = np.nextafter(
            samples[0][name][..., 0, 0], 1.0
        )

    def swap_samples(samples):
        samples[0], samples[1] = samples[1], samples[0]

    # The row whose float logits span the most steps, as a check
    # against the float reference can only tell a uniform row from a
    # served one where the span exceeds its tolerance.
    widest = int(np.argmax(np.ptp(np.log(reference), axis=-1).reshape(-1)))

    def uniform(samples):
        rows = samples[0][name].reshape(-1, samples[0][name].shape[-1])
        rows[widest] = 1.0 / rows.shape[-1]

    for label, mutate, rejecting in (
        ("probability raised by 1e-3", add_mass, ("row sum",)),
        ("largest and smallest probability swapped", swap_extremes,
         ("reference", "bit identity")),
        ("one value moved by one ulp", last_bit, ("bit identity",)),
        ("samples 0 and 1 swapped", swap_samples,
         ("reference", "bit identity")),
        ("uniform row", uniform, ("reference", "bit identity")),
    ):
        samples = [{k: v.copy() for k, v in s.items()} for s in clean]
        mutate(samples)
        for check in rejecting:
            expect(f"{label} ({check})", checks[check](samples[0][name]),
                   rejected=True)
        expected.verified.clear()
        expect(f"{label} (response)",
               expected.check(cls, _response(samples)), rejected=True)

    failures = 0
    for label, ok, first in results:
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}"
              + (f": {first[0]}" if first else ""))
    print(f"{len(results) - failures}/{len(results)} self-test cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
