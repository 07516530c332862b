"""Steadiness of one workload: two sets of runs, compared by the bounds.

Usage::

    python3 perfbench/steady.py --workload serve_decoder --runs 10

Runs ``perfbench/run.py`` ``2 * runs`` times for ``run_seconds`` of
``BENCHMARK.json`` each, each with its own seed (set A takes seeds
``1 .. runs``, set B the next ``runs``), and prints for every
end-to-end metric each set's quartiles and spread (interquartile
distance over median) and whether the two sets agree: every run
correct, every spread within the metric's bound, set B's median no
worse than set A's by more than the bound, and the same share of
failed operations.  Exits 1 when they do not agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict

import common


def one_run(workload: str, seed: int, seconds: int) -> Dict:
    cmd = [
        sys.executable, os.path.join(common.HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        cmd, cwd=common.ROOT, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(
        f"  seed {seed}: correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
        flush=True,
    )
    return {"result": result, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = common.load_spec()
    seconds = spec["run_seconds"]
    sets = []
    for index, label in enumerate("AB"):
        print(f"set {label}:", flush=True)
        first = 1 + index * args.runs
        sets.append([
            one_run(args.workload, seed, seconds)
            for seed in range(first, first + args.runs)
        ])

    incorrect = sum(not r["result"]["correct"] for s in sets for r in s)
    agree = not incorrect
    if incorrect:
        print(f"{incorrect} run(s) failed a check")
    shares = [
        {r["result"]["failed"] / r["result"]["attempted"] for r in s}
        for s in sets
    ]
    if len(shares[0] | shares[1]) != 1:
        print(f"failed shares differ: {shares}")
        agree = False

    print(f"{'metric':<14} {'set':<4} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        columns = [[r["values"][name] for r in s] for s in sets]
        for label, values in zip("AB", columns):
            q1, q2, q3 = common.quartiles(values)
            width = (q3 - q1) / q2
            flag = ""
            if width > bound:
                flag = "  SPREAD > BOUND"
                agree = False
            print(f"{name:<14} {label:<4} {q1:>12.6g} {q2:>12.6g} "
                  f"{q3:>12.6g} {width:>8.2%} {bound:>6.0%}{flag}")
        first, second = (common.median(c) for c in columns)
        worse = (
            (second - first) / first if entry["better"] == "lower"
            else (first - second) / first
        )
        if worse > bound:
            print(f"{name}: set B median worse by {worse:.2%} "
                  f"(bound {bound:.0%})")
            agree = False
    print("sets agree within the bounds" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
