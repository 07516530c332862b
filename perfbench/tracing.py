"""Spans and counters recorded around calls into the program's layers.

Nothing here edits the program: :func:`install_compile_tracing` and
:func:`install_serve_tracing` replace module or class attributes with
wrappers that time (and optionally count) each call, and return a list
of patches that :func:`uninstall` puts back.

A span is ``(span_id, parent_id, request_id, name, start, end)``; the
parent is the innermost open span on the same thread, and the request
id is whatever the serve wrapper read from the ``X-Request-Id`` header
of the request the thread is handling.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from typing import Callable, List, Optional, Tuple

#: PassManager stage -> span name (layer.function).
STAGE_SPANS = {
    "graph": "graph.passes",
    "selection": "core.selection",
    "unroll": "core.unroll",
    "lowering": "codegen.lower",
    "packing": "core.packing",
    "profile": "machine.profile",
}
VERIFY_SPAN = "verify.check"
COMPILE_SPAN = "compile"
COMPILE_LAYERS = tuple(STAGE_SPANS.values()) + (VERIFY_SPAN,)

#: Modules that call ``classify_dependency`` through a module global.
DEPENDENCY_CALLERS = (
    "repro.isa.dependencies",
    "repro.machine.packet",
    "repro.core.packing.idg",
    "repro.core.packing.evaluate",
    "repro.core.packing.swp",
    "repro.verify.checkers",
    "repro.lint.hazards",
)
#: Innermost span -> counter its ``classify_dependency`` calls go to.
DEPENDENCY_COUNTERS = {
    "core.packing": "core.packing_dep_checks",
    VERIFY_SPAN: "verify.dep_checks",
}

Patch = Tuple[object, str, object]


class Tracer:
    """In-memory span and counter store, written out once at the end."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @property
    def request(self) -> Optional[str]:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: Optional[str]) -> None:
        self._local.request = value

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, self.request, name, start, end)
            )

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts)}, handle
            )


def _patch(patches: List[Patch], owner, attr: str, replacement) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def uninstall(patches: List[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def install_compile_tracing(tracer: Tracer, count: bool) -> List[Patch]:
    """Spans at every compile stage and verifier, and the count of
    lowered instructions; with ``count``, also the cost-model
    evaluations and dependency classifications.

    Those two counters wrap hot inner calls, so they cost far more than
    the spans; the benchmark takes them in a pass of their own.
    """
    import importlib

    from repro.compiler import GCD2Compiler
    from repro.core.cost import CostModel
    from repro.verify.passes import PassManager

    patches: List[Patch] = []
    run, check = PassManager.run, PassManager.check

    def traced_run(self, stage, thunk):
        artefact = tracer.call(
            STAGE_SPANS.get(stage, stage), run, self, stage, thunk
        )
        if stage == "lowering":
            tracer.counts["codegen.instructions"] += sum(
                len(kernel.body) for kernel in artefact.values()
            )
        return artefact

    def traced_check(self, stage, checker, *args):
        return tracer.call(VERIFY_SPAN, check, self, stage, checker, *args)

    _patch(patches, PassManager, "run", traced_run)
    _patch(patches, PassManager, "check", traced_check)
    _patch(
        patches, GCD2Compiler, "compile",
        _spanned(tracer, COMPILE_SPAN, GCD2Compiler.compile),
    )
    if not count:
        return patches

    def counted(fn: Callable, counter_for: Callable[[], Optional[str]]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = counter_for()
            if key is not None:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def selection_counter() -> Optional[str]:
        if tracer.innermost() == "core.selection":
            return "core.selection_cost_evals"
        return None

    for attr in ("node_cost", "edge_cost", "boundary_cost"):
        _patch(
            patches, CostModel, attr,
            counted(getattr(CostModel, attr), selection_counter),
        )

    def dependency_counter() -> Optional[str]:
        return DEPENDENCY_COUNTERS.get(tracer.innermost())

    for name in DEPENDENCY_CALLERS:
        module = importlib.import_module(name)
        _patch(
            patches, module, "classify_dependency",
            counted(module.classify_dependency, dependency_counter),
        )
    return patches


class _JsonProxy:
    """The ``json`` module, with ``loads``/``dumps`` inside spans."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._module = module
        self.loads = _spanned(tracer, "serve.json_decode", module.loads)
        self.dumps = _spanned(tracer, "serve.json_encode", module.dumps)

    def __getattr__(self, attr: str):
        return getattr(self._module, attr)


def install_serve_tracing(tracer: Tracer) -> List[Patch]:
    """Spans at the serve, runtime, codegen and absint boundaries."""
    import repro.absint
    import repro.codegen.emit
    from repro.runtime.engine import InferenceEngine
    from repro.serve import app
    from repro.serve.pool import EnginePool

    patches: List[Patch] = []
    route = app._Handler._route

    def traced_route(handler, method):
        tracer.request = handler.headers.get("X-Request-Id")
        try:
            return tracer.call("serve.request", route, handler, method)
        finally:
            tracer.request = None

    _patch(patches, app._Handler, "_route", traced_route)
    _patch(patches, app, "json", _JsonProxy(tracer, app.json))
    for owner, attr, name in (
        (app._Handler, "_read_body", "serve.read_body"),
        (app._Handler, "_send", "serve.send"),
        (app, "decode_feeds", "serve.decode_feeds"),
        (app, "encode_arrays", "serve.encode_arrays"),
        (app.ServeService, "_compile_job", "serve.compile_job"),
        (EnginePool, "_checkout", "serve.pool_wait"),
        (InferenceEngine, "run_batch", "runtime.batch"),
        (InferenceEngine, "calibrate", "runtime.calibrate"),
        (repro.codegen.emit, "emit_executor", "codegen.emit"),
        (repro.absint, "analyze_model", "absint.analyze"),
    ):
        _patch(
            patches, owner, attr,
            _spanned(tracer, name, getattr(owner, attr)),
        )
    return patches

