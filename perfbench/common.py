"""Shared plumbing: repository paths, pinned BLAS threads, statistics.

Importing this module pins the BLAS thread count in the environment
(before NumPy is imported anywhere in the process) and puts the
repository's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
from typing import Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: BLAS threads per process, held fixed across runs and passed on to
#: the server process.  One thread each keeps the two serve clients'
#: batches from oversubscribing a 2-CPU host.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env(base: Dict[str, str]) -> Dict[str, str]:
    """``base`` with the BLAS thread count pinned and ``src`` importable."""
    env = dict(base)
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    env["PYTHONPATH"] = SRC
    # A schedule-cache directory from the caller's environment would
    # make `repro serve` compile warm; the workloads compile cold.
    env.pop("REPRO_CACHE_DIR", None)
    return env


def require_program() -> None:
    """Exit with status 2 unless the program's source tree is present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"error: program source not found under {SRC}",
            file=sys.stderr,
        )
        raise SystemExit(2)


for _key in BLAS_ENV:
    os.environ[_key] = BLAS_THREADS
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def environment(seed: int) -> Dict:
    """What a run's figures depend on besides the code."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


#: Host-speed probe: its wall time on an unloaded host of this kind.
REFERENCE_PROBE_S = 0.010
PROBE_ITERATIONS = 12000


def host_probe() -> float:
    """Wall seconds of a fixed pure-Python workload (the mean of two
    back-to-back runs: the first run after a large operation finds cold
    caches).

    The shared hosts this benchmark runs on change speed by up to 2x
    within a minute, and CPU time tracks wall time, so a timing alone
    mostly measures the host.  Compiles, which are pure Python like
    the probe, are timed between probes and rescaled with
    :func:`host_scaled` to the speed at which the probe takes
    ``REFERENCE_PROBE_S``.  The probe touches nothing of the program,
    so a program change still moves the scaled time by its own share.
    """
    return (_probe_once() + _probe_once()) / 2.0


def _probe_once() -> float:
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        table[i % 977] = table.get(i % 977, 0) + i
        row = [j * 3 for j in range(8)]
        row.sort(reverse=True)
    return time.perf_counter() - start


#: Serve probe: its wall time on an unloaded host of this kind.
REFERENCE_SERVE_PROBE_S = 0.010
_SERVE_PROBE_DATA: List = []


def serve_probe() -> float:
    """Wall seconds of fixed JSON and NumPy work of the kinds the
    server does: the geometric mean of a JSON round trip of 20 000
    floats and of eight small float32 GEMMs with rounding plus a pass
    over an 8 MB array, each the faster of two runs.

    The server's time goes to JSON and NumPy, whose speed follows the
    host's memory system as well as its CPU, so :func:`host_probe`
    (pure Python, a few KB) does not track it; see ``README.md``.
    """
    import numpy as np

    if not _SERVE_PROBE_DATA:
        rng = np.random.default_rng(0)
        _SERVE_PROBE_DATA.extend([
            rng.standard_normal(20000).tolist(),
            rng.standard_normal((256, 576)).astype(np.float32),
            rng.standard_normal((576, 64)).astype(np.float32),
            rng.standard_normal(1 << 20),
        ])
    floats, lhs, rhs, big = _SERVE_PROBE_DATA

    def json_once() -> float:
        start = time.perf_counter()
        json.loads(json.dumps(floats))
        return time.perf_counter() - start

    def numpy_once() -> float:
        start = time.perf_counter()
        for _ in range(8):
            out = lhs @ rhs
            np.clip(np.rint(out * 0.1), -127, 127, out=out)
        copy = big.copy()
        copy *= 0.5
        np.add(copy, big, out=copy)
        return time.perf_counter() - start

    return math.sqrt(
        min(json_once(), json_once()) * min(numpy_once(), numpy_once())
    )


def host_scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, given the probes taken
    right before and right after the operation."""
    return seconds * REFERENCE_PROBE_S * 2.0 / (before + after)


def enough(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether ``rounds`` whole rounds taking ``elapsed`` seconds come
    closer to ``seconds`` than one more round would.

    Every run measures whole rounds of the same operations, so the
    share of failed operations does not depend on where the clock
    stops; at least one round always runs.
    """
    return elapsed + 0.5 * elapsed / rounds >= seconds


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (as the gate takes them)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return [q1, q2, q3]


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}
