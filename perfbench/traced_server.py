"""``repro serve`` with spans around its layers, for the traced run.

Usage: ``python3 perfbench/traced_server.py SPANS.json [serve args...]``

Installs the span wrappers of :mod:`tracing` (compile stages, serve,
runtime, codegen and absint boundaries) and runs the ordinary
``repro serve`` command.  On SIGTERM the server shuts down and the
spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import signal
import sys

import common
import tracing


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    common.require_program()
    from repro.cli import main as cli_main

    tracer = tracing.Tracer()
    tracing.install_compile_tracing(tracer, count=False)
    tracing.install_serve_tracing(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
