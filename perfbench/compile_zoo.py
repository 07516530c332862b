"""``compile_zoo``: every zoo model compiled cold on every machine.

Each compile uses a fresh :class:`~repro.compiler.GCD2Compiler` with
default ``CompilerOptions(machine=m)`` (memory-only schedule cache,
``jobs=1``).  The seed only permutes the order of the 33 cells in each
measured pass; the models and machines are fixed.
"""

from __future__ import annotations

import os
import random
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import common
import tracing
from checks import check_packets

UNTRACED_TOLERANCE = 0.10  # stage sum vs untraced compile, stated


def _cells() -> List[Tuple[str, str]]:
    from repro.machine.description import machine_names
    from repro.models import model_names

    return [(m, k) for m in model_names() for k in machine_names()]


def _compile(graphs, cell):
    from repro.compiler import CompilerOptions, GCD2Compiler

    model, machine = cell
    return GCD2Compiler(CompilerOptions(machine=machine)).compile(
        graphs[model]
    )


class _Timer:
    """Times compiles between host probes (see :func:`common.host_probe`):
    each compile is scaled by the probes right before and right after
    it, and the probe after one compile is the probe before the next."""

    def __init__(self) -> None:
        self.before = common.host_probe()

    def compile(self, graphs, cell):
        """``(compiled, wall seconds, host-scaled seconds)``."""
        start = time.perf_counter()
        try:
            compiled = _compile(graphs, cell)
        finally:
            wall = time.perf_counter() - start
            after = common.host_probe()
            before, self.before = self.before, after
        return compiled, wall, common.host_scaled(wall, before, after)


def _first_pass(graphs, order, problems) -> Tuple[Dict, float, List, int]:
    """Compile every cell once and check it; returns the artefact
    figures each later compile must repeat, the host-scaled compile
    time spent, the compile diagnostics and the number of compiles
    that raised."""
    figures: Dict = {}
    diagnostics = []
    spent = 0.0
    failed = 0
    timer = _Timer()
    for cell in order:
        try:
            compiled, _, scaled = timer.compile(graphs, cell)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            failed += 1
            problems.append(f"{cell}: {type(exc).__name__}: {exc}")
            continue
        spent += scaled
        figures[cell] = (compiled.total_cycles, compiled.total_packets)
        diagnostics.append(compiled.diagnostics)
        problems.extend(check_packets(compiled))
    return figures, spent, diagnostics, failed


def _repeat(figures, cell, compiled, problems) -> None:
    got = (compiled.total_cycles, compiled.total_packets)
    if cell in figures and got != figures[cell]:
        problems.append(
            f"{cell[0]}/{cell[1]}: repeated compile gave "
            f"(cycles, packets) {got}, first compile {figures[cell]}"
        )


def run(seed: int, seconds: float, traced: bool) -> Dict:
    from repro.models import build_model

    rng = random.Random(seed)
    cells = _cells()
    problems: List[str] = []

    before = common.host_probe()
    start = time.perf_counter()
    graphs = {model: build_model(model) for model, _ in cells}
    build_s = time.perf_counter() - start
    build_s = common.host_scaled(build_s, before, common.host_probe())

    if traced:
        return _run_traced(graphs, cells, rng, problems, seed)

    # The warm-up pass runs in a fixed order, so the memory high-water
    # mark it sets does not depend on the seed.
    figures, warmup_s, _, _ = _first_pass(graphs, cells, problems)

    times: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    walls: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    attempted = failed = 0
    busy = 0.0
    began = time.perf_counter()
    passes = 0
    timer = _Timer()
    while True:
        passes += 1
        for cell in rng.sample(cells, len(cells)):
            attempted += 1
            try:
                compiled, wall, scaled = timer.compile(graphs, cell)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failed += 1
                problems.append(f"{cell}: {type(exc).__name__}: {exc}")
                continue
            busy += scaled
            times[cell].append(scaled)
            walls[cell].append(wall)
            _repeat(figures, cell, compiled, problems)
            del compiled
        if common.enough(time.perf_counter() - began, passes, seconds):
            break

    cell_ms = {cell: 1000.0 * common.median(t) for cell, t in times.items()}
    unscaled = common.geomean(
        1000.0 * common.median(t) for t in walls.values()
    )
    print(f"unscaled: compile_ms={unscaled:.2f}")
    compiles = sum(len(t) for t in times.values())
    values = {
        "setup_s": build_s + warmup_s,
        "compile_ms": common.geomean(cell_ms.values()),
        "sim_cycles": common.geomean(f[0] for f in figures.values()),
        "code_packets": common.geomean(f[1] for f in figures.values()),
        "peak_rss_mb": common.peak_rss_mb(),
        "samples_per_s": compiles / busy,
        "request_ms": sum(cell_ms.values()) / len(cell_ms),
    }
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }


def _run_traced(graphs, cells, rng, problems, seed) -> Dict:
    """Counting pass, then each cell compiled untraced and span-traced
    back to back (order alternating) so host drift cancels."""
    counter = tracing.Tracer()
    patches = tracing.install_compile_tracing(counter, count=True)
    try:
        figures, _, diagnostics, failed = _first_pass(
            graphs, rng.sample(cells, len(cells)), problems
        )
    finally:
        tracing.uninstall(patches)

    tracer = tracing.Tracer()
    untraced: List[float] = []
    traced_walls: List[float] = []
    stage_ms: Dict[str, List[float]] = defaultdict(list)
    for index, cell in enumerate(rng.sample(cells, len(cells))):
        for with_spans in (index % 2 == 0, index % 2 == 1):
            patches = (
                tracing.install_compile_tracing(tracer, count=False)
                if with_spans else []
            )
            first_span = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                compiled = _compile(graphs, cell)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failed += 1
                problems.append(f"{cell}: {type(exc).__name__}: {exc}")
                del tracer.spans[first_span:]
                continue
            finally:
                wall = time.perf_counter() - t0
                tracing.uninstall(patches)
            _repeat(figures, cell, compiled, problems)
            del compiled
            if not with_spans:
                untraced.append(wall)
                continue
            traced_walls.append(wall)
            spent = defaultdict(float)
            for span in tracer.spans[first_span:]:
                spent[span[3]] += span[5] - span[4]
            for layer in tracing.COMPILE_LAYERS:
                stage_ms[layer].append(1000.0 * spent[layer])
            stage_ms["compile.unattributed"].append(1000.0 * (
                wall - sum(spent[layer] for layer in tracing.COMPILE_LAYERS)
            ))

    os.makedirs(common.OUT, exist_ok=True)
    tracer.dump(os.path.join(common.OUT, f"compile_zoo-{seed}-spans.json"))

    values = {
        f"{layer}_ms": sum(ms) / len(ms) for layer, ms in stage_ms.items()
    }
    for key in (
        "core.selection_cost_evals",
        "codegen.instructions",
        "core.packing_dep_checks",
        "verify.dep_checks",
    ):
        values[key] = counter.counts[key]
    lookups = sum(d.cache_lookups for d in diagnostics)
    values["cache.hit_ratio"] = (
        sum(d.cache_hits for d in diagnostics) / lookups
    )
    untraced_ms = 1000.0 * sum(untraced) / len(untraced)
    traced_ms = 1000.0 * sum(traced_walls) / len(traced_walls)
    values["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    stage_sum = sum(values[f"{layer}_ms"] for layer in tracing.COMPILE_LAYERS)
    gap = abs(stage_sum + values["compile.unattributed_ms"] - untraced_ms)
    within = gap <= UNTRACED_TOLERANCE * untraced_ms
    if not within:
        problems.append(
            f"traced stage times miss the untraced compile time by "
            f"{100.0 * gap / untraced_ms:.1f}% "
            f"(tolerance {100 * UNTRACED_TOLERANCE:.0f}%)"
        )
    print(
        f"add-up: stages {stage_sum:.2f} ms + unattributed "
        f"{values['compile.unattributed_ms']:.2f} ms = {traced_ms:.2f} ms "
        f"per compile; untraced {untraced_ms:.2f} ms; gap "
        f"{100.0 * gap / untraced_ms:.1f}% "
        f"(tolerance {100 * UNTRACED_TOLERANCE:.0f}%: "
        f"{'within' if within else 'OUTSIDE'})"
    )
    return {
        "problems": problems,
        "attempted": len(cells) * 3,
        "failed": failed,
        "values": values,
    }
