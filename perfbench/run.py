"""Run one benchmark workload and print its result as the last line.

Usage::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S
        --trace 0|1

with WORKLOAD one of compile_zoo, serve_classify, serve_decoder.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from a traced run (layers a
workload does not exercise read 0).  Lines before the result describe
the environment and any failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("compile_zoo", "serve_classify", "serve_decoder")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_program()
    spec = common.load_spec()
    print("env " + json.dumps(common.environment(args.seed)), flush=True)

    if args.workload == "compile_zoo":
        import compile_zoo

        outcome = compile_zoo.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve_load

        outcome = serve_load.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    for problem in outcome["problems"]:
        print(f"check failed: {problem}", flush=True)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome["values"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if args.trace:
            value = values.get(name, 0)
        else:
            value = values[name]
        metrics[name] = common.metric(value, entry["unit"])
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
