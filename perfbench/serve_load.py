"""``serve_classify`` / ``serve_decoder``: a lock-step closed loop of
two clients against ``repro serve`` (default config, ``--cold``).

At each step both clients send one ``/infer`` request of the same
(model, batch) class and wait for their replies; the classes cycle in a
fixed order, so every run overlaps the same requests the same way.
Request bodies carry explicit feeds drawn from the workload seed (one
feed set per class, shared by both clients) and are encoded before the
clock starts; responses are checked after each step, outside the timed
window.

Request and set-up costs are the server's CPU time (user + system, all
threads), not the client's wall clock: see ``README.md``, *Serve costs*.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import common  # pins the BLAS threads before NumPy loads
import numpy as np
import tracing
from checks import (
    check_identical,
    check_reference,
    check_softmax,
    decode_outputs,
)

CLASSES = {
    "serve_classify": (
        ("mobilenet_v3", 1),
        ("mobilenet_v3", 4),
        ("tinybert", 1),
        ("tinybert", 4),
    ),
    "serve_decoder": (("decoder_tiny", 1), ("decoder_tiny", 4)),
}
CLIENTS = 2
SETUP_REPEATS = 3
#: Cold compiles per served model for ``compile_ms`` (the first one
#: also feeds the output checks).
COMPILES = {"mobilenet_v3": 3, "tinybert": 3, "decoder_tiny": 2}
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
#: How long to wait for the server to stop using CPU after a request.
QUIESCE_LIMIT_S = 2.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: The server runs on one CPU and the benchmark on another (one CPU
#: each when only one is allowed): the probes then run on the server's
#: CPU, which the host's other tenants slow by a share of their own.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = {_CPUS[-1]}
CLIENT_CPU = {_CPUS[0]}


def probe_server_cpu() -> float:
    """:func:`common.serve_probe` on the server's CPU (call it only
    while the server is idle)."""
    os.sched_setaffinity(0, SERVER_CPU)
    try:
        return common.serve_probe()
    finally:
        os.sched_setaffinity(0, CLIENT_CPU)


class Server:
    """One ``repro serve`` process on a free localhost port."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [
                sys.executable,
                os.path.join(common.HERE, "traced_server.py"),
                spans_path,
            ]
        env = common.pinned_env(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            cmd + ["--port", "0", "--cold"],
            cwd=common.ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPU),
        )
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("http://", 1)[1].strip().rstrip("/")
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        # Drain the rest of the server's stdout so it can never block.
        self._drain = threading.Thread(
            target=self.proc.stdout.read, daemon=True
        )
        self._drain.start()

    def post(self, path: str, body: bytes, request_id: str):
        """``(status, response bytes, seconds)`` for one POST."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            start = time.perf_counter()
            conn.request(
                "POST", path, body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Request-Id": request_id,
                },
            )
            response = conn.getresponse()
            data = response.read()
            return response.status, data, time.perf_counter() - start
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server, its ended threads
        included."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def settled_cpu(self) -> float:
        """:meth:`cpu_seconds` once the server has stopped using CPU
        (the work after a reply, such as freeing its buffers, belongs
        to the request)."""
        deadline = time.perf_counter() + QUIESCE_LIMIT_S
        last = self.cpu_seconds()
        while time.perf_counter() < deadline:
            time.sleep(0.03)
            now = self.cpu_seconds()
            if now == last:
                break
            last = now
        return last

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Expected:
    """What the responses of one workload are checked against."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.compiler import GCD2Compiler
        from repro.graph import ops
        from repro.graph.execute import ReferenceExecutor
        from repro.harness import example_feeds
        from repro.models import build_model
        from repro.runtime.executor import QuantizedExecutor
        from repro.serve import ServeConfig

        config = ServeConfig()
        self.bodies: Dict[Tuple[str, int], bytes] = {}
        self.reference: Dict[Tuple[str, int], List[Dict]] = {}
        self.quantized: Dict[Tuple[str, int], List[Dict]] = {}
        self.logit_step: Dict[str, Dict[str, float]] = {}
        self.verified: Dict[Tuple[str, int], bytes] = {}
        self.degraded: Dict[Tuple[str, int], bool] = {}
        #: Median host-scaled seconds of a cold compile of each served
        #: model, with the options the server compiles it with.  The
        #: compiler is pure Python, so it is timed like ``compile_zoo``.
        self.compile_seconds: Dict[str, float] = {}
        compiled = {}
        for model in dict(CLASSES[workload]):
            graph = build_model(model)
            times: List[float] = []
            before = common.host_probe()
            for _ in range(COMPILES[model]):
                start = time.perf_counter()
                compiled[model] = GCD2Compiler().compile(graph)
                wall = time.perf_counter() - start
                after = common.host_probe()
                times.append(common.host_scaled(wall, before, after))
                before = after
            self.compile_seconds[model] = common.median(times)
        for index, (model, batch) in enumerate(CLASSES[workload]):
            graph = compiled[model].graph
            rng = np.random.default_rng([seed, index])
            feeds = [
                {
                    node.name: rng.standard_normal(node.op.shape)
                    for node in graph
                    if isinstance(node.op, ops.Input)
                }
                for _ in range(batch)
            ]
            self.bodies[(model, batch)] = json.dumps(
                {
                    "feeds": [
                        {k: v.tolist() for k, v in sample.items()}
                        for sample in feeds
                    ]
                }
            ).encode()
            # The same weights, calibration feeds and GEMM routing as a
            # pool engine of a default-config server.
            executor = QuantizedExecutor(
                compiled[model],
                seed=0,
                kernel_mac_limit=config.kernel_mac_limit,
            )
            calibration = executor.calibrate(
                example_feeds(
                    graph,
                    count=config.calibration_samples,
                    seed=config.calibration_seed,
                )
            )
            reference = ReferenceExecutor(graph, seed=0)
            self.reference[(model, batch)] = [
                reference.run(sample) for sample in feeds
            ]
            self.quantized[(model, batch)] = [
                executor.run(sample) for sample in feeds
            ]
            self.logit_step[model] = {
                node.name: calibration.bound(node.inputs[0]) / 127.0
                for node in graph.output_nodes()
            }

    def check(self, cls: Tuple[str, int], data: bytes) -> List[str]:
        """Problems with one 200 response of class ``cls``."""
        if self.verified.get(cls) == data:
            return []
        model, batch = cls
        payload = json.loads(data)
        samples = payload.get("outputs", [])
        if len(samples) != batch:
            return [f"{model}: {len(samples)} outputs for batch {batch}"]
        problems: List[str] = []
        for index, sample in enumerate(samples):
            outputs = decode_outputs(sample)
            reference = self.reference[cls][index]
            if sorted(outputs) != sorted(reference):
                problems.append(f"{model}: outputs {sorted(outputs)}")
                continue
            for name, probs in outputs.items():
                label = f"{model}[b{batch}:{index}].{name}"
                problems += check_softmax(label, probs)
                problems += check_reference(
                    label, probs, reference[name],
                    self.logit_step[model][name],
                )
                problems += check_identical(
                    label, probs, self.quantized[cls][index][name]
                )
        if not problems:
            self.verified[cls] = data
            self.degraded[cls] = (
                payload.get("mode") != "batched"
                or bool(payload.get("degradations"))
            )
        return problems


class Record:
    """One ``/infer`` request as the client saw it."""

    __slots__ = ("cls", "request_id", "status", "seconds", "cpu",
                 "sent", "received", "degraded")

    def __init__(self, cls, request_id, status, seconds, sent, received):
        self.cls = cls
        self.request_id = request_id
        self.status = status
        self.seconds = seconds
        #: The server's CPU seconds for the step, per request.
        self.cpu = 0.0
        self.sent = sent
        self.received = received
        self.degraded = False


class Loop:
    """Setup, warm-up and the measured lock-step loop on one server."""

    def __init__(self, server: Server, workload: str, expected: Expected):
        self.server = server
        self.workload = workload
        self.expected = expected
        self.models = list(dict(CLASSES[workload]))
        self.problems: List[str] = []
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS)
        self.register_ms: List[float] = []
        #: :func:`probe_server_cpu` after each registration round and
        #: each measured step, with the server idle.
        self.probes: List[float] = []
        self.artifacts: Dict[str, Dict] = {}
        self.compile_stats: Dict[str, Dict] = {}

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    def register_all(self) -> float:
        """Register every model and wait until each is ready; returns
        the server's CPU seconds for the whole round."""
        start_cpu = self.server.settled_cpu()
        for model in self.models:
            body = json.dumps(
                {"name": model, "wait": True, "wait_timeout_s": 120}
            ).encode()
            status, data, seconds = self.server.post(
                "/models", body, f"register-{model}"
            )
            payload = json.loads(data)
            if status != 200 or payload["job"]["state"] != "done":
                raise RuntimeError(
                    f"registering {model} failed: {status} {data[:300]!r}"
                )
            self.register_ms.append(1000.0 * seconds)
            self.artifacts[model] = payload["model"]["artifact"]
            self.compile_stats[model] = payload["model"]["compile_stats"]
        spent = self.server.settled_cpu() - start_cpu
        self.probes.append(probe_server_cpu())
        return spent

    def _send(self, cls, request_id) -> Tuple[Record, bytes]:
        body = self.expected.bodies[cls]
        model, _ = cls
        try:
            status, data, seconds = self.server.post(
                f"/models/{model}/infer", body, request_id
            )
        except (OSError, http.client.HTTPException) as exc:
            self.problems.append(f"{request_id}: {type(exc).__name__}")
            return Record(cls, request_id, None, 0.0, len(body), 0), b""
        return Record(cls, request_id, status, seconds, len(body),
                      len(data)), data

    def step(self, cls, tag: str) -> List:
        """Both clients send one ``cls`` request; returns their
        ``(record, body)`` replies."""
        futures = [
            self.pool.submit(self._send, cls, f"{tag}-c{client}")
            for client in range(CLIENTS)
        ]
        return [future.result() for future in futures]

    def settle(self, cls, replies) -> List[Record]:
        """Check a step's replies (outside the timed window)."""
        records = []
        for record, data in replies:
            if record.status == 200:
                self.problems += self.expected.check(cls, data)
                record.degraded = self.expected.degraded.get(cls, False)
            elif record.status is not None:
                self.problems.append(
                    f"{record.request_id}: HTTP {record.status} "
                    f"{data[:200]!r}"
                )
            records.append(record)
        return records

    def warm_up(self) -> None:
        for cls in CLASSES[self.workload]:
            replies = self.step(cls, f"warmup-{cls[0]}-b{cls[1]}")
            for record in self.settle(cls, replies):
                if record.status != 200:
                    raise RuntimeError(
                        f"warm-up request {record.request_id} failed"
                    )

    def measure(self, seconds: float) -> List[Record]:
        """Whole rounds of lock-step steps for about ``seconds`` (see
        :func:`common.enough`); returns every record."""
        records: List[Record] = []
        began = time.perf_counter()
        round_index = 0
        start_cpu = self.server.settled_cpu()
        while True:
            for cls in CLASSES[self.workload]:
                replies = self.step(
                    cls, f"infer-r{round_index}-{cls[0]}-b{cls[1]}"
                )
                end_cpu = self.server.settled_cpu()
                self.probes.append(probe_server_cpu())
                step_records = self.settle(cls, replies)
                for record in step_records:
                    record.cpu = (end_cpu - start_cpu) / CLIENTS
                records += step_records
                start_cpu = end_cpu
            round_index += 1
            elapsed = time.perf_counter() - began
            if common.enough(elapsed, round_index, seconds):
                return records


def request_ms(records: List[Record], attr: str = "cpu") -> float:
    """Geometric mean over classes of the median of ``attr`` (the
    server's CPU seconds per request, or the client's ``seconds``),
    in ms."""
    by_class = defaultdict(list)
    for record in records:
        if record.status == 200:
            by_class[record.cls].append(1000.0 * getattr(record, attr))
    return common.geomean(common.median(v) for v in by_class.values())


def _leg(workload, expected, seconds, spans_path=None, setups=1):
    """Start a server, set it up ``setups`` times, warm up, measure."""
    server = Server(spans_path)
    loop = Loop(server, workload, expected)
    try:
        setup = [loop.register_all() for _ in range(setups)]
        loop.warm_up()
        records = loop.measure(seconds)
        peak = server.peak_rss_mb()
    finally:
        loop.close()
        server.stop()
    return loop, setup, records, peak


def run(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    os.sched_setaffinity(0, CLIENT_CPU)
    expected = Expected(workload, seed)
    if traced:
        return _run_traced(workload, expected, seconds, seed)
    loop, setup, records, peak = _leg(
        workload, expected, seconds, setups=SETUP_REPEATS
    )
    models = loop.models
    ok = [r for r in records if r.status == 200]
    # Every server time is CPU seconds, scaled by one host speed for
    # the whole run from all of its probes (a run lasts well under a
    # minute).
    scale = common.REFERENCE_SERVE_PROBE_S / common.median(loop.probes)
    print(
        f"unscaled: request_ms={request_ms(records):.4g} "
        f"setup_s={common.median(setup):.4g}; probe_ms="
        f"{1000 * common.median(loop.probes):.3f}; client latency: "
        f"request_ms={request_ms(records, 'seconds'):.4g}"
    )
    values = {
        "setup_s": scale * common.median(setup),
        "compile_ms": common.geomean(
            1000.0 * expected.compile_seconds[m] for m in models
        ),
        "sim_cycles": common.geomean(
            loop.artifacts[m]["total_cycles"] for m in models
        ),
        "code_packets": common.geomean(
            loop.artifacts[m]["total_packets"] for m in models
        ),
        "peak_rss_mb": peak,
        "samples_per_s": sum(r.cls[1] for r in ok)
        / (scale * sum(r.cpu for r in ok)),
        "request_ms": scale * request_ms(records),
    }
    return {
        "problems": loop.problems,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "values": values,
    }


def _run_traced(workload, expected, seconds, seed) -> Dict:
    """An untraced leg, then the same leg against the traced server;
    each leg measures for half of ``seconds``."""
    seconds /= 2.0
    plain, _, plain_records, _ = _leg(workload, expected, seconds)
    os.makedirs(common.OUT, exist_ok=True)
    spans_path = os.path.join(common.OUT, f"{workload}-{seed}-spans.json")
    loop, _, records, _ = _leg(
        workload, expected, seconds, spans_path=spans_path
    )
    with open(spans_path) as handle:
        dump = json.load(handle)
    spans = dump["spans"]

    per_request = defaultdict(lambda: defaultdict(float))
    per_name = defaultdict(float)
    compiles = 0
    for _id, _parent, request, name, start, end in spans:
        per_name[name] += end - start
        compiles += name == tracing.COMPILE_SPAN
        if request is not None:
            per_request[request][name] += end - start
    measured = [r for r in records if r.status == 200]

    def mean_ms(*names: str) -> float:
        return 1000.0 * sum(
            per_request[r.request_id][name]
            for r in measured for name in names
        ) / len(measured)

    n_models = len(loop.models)
    values = {
        f"{layer}_ms": 1000.0 * per_name[layer] / compiles
        for layer in tracing.COMPILE_LAYERS
    }
    values["compile.unattributed_ms"] = 1000.0 * (
        per_name[tracing.COMPILE_SPAN]
        - sum(per_name[layer] for layer in tracing.COMPILE_LAYERS)
    ) / compiles
    values["codegen.instructions"] = dump["counts"].get(
        "codegen.instructions", 0
    )
    hits = sum(s["cache_hits"] for s in loop.compile_stats.values())
    misses = sum(s["cache_misses"] for s in loop.compile_stats.values())
    values.update({
        "cache.hit_ratio": hits / (hits + misses),
        "serve.request_decode_ms": mean_ms(
            "serve.json_decode", "serve.decode_feeds"
        ),
        "serve.response_encode_ms": mean_ms(
            "serve.encode_arrays", "serve.json_encode"
        ),
        "serve.request_bytes": sum(r.sent for r in measured) / len(measured),
        "serve.response_bytes": sum(r.received for r in measured)
        / len(measured),
        "runtime.batch_ms": mean_ms("runtime.batch"),
        "runtime.degraded_batches": sum(r.degraded for r in measured),
        "serve.pool_wait_ms": mean_ms("serve.pool_wait"),
        # Moving bytes: the client's time outside the handler, plus the
        # handler's socket read and write (their spans less the JSON
        # work nested in them).
        "serve.transport_ms": 1000.0 * sum(
            r.seconds
            - per_request[r.request_id]["serve.request"]
            + per_request[r.request_id]["serve.read_body"]
            - per_request[r.request_id]["serve.json_decode"]
            + per_request[r.request_id]["serve.send"]
            - per_request[r.request_id]["serve.json_encode"]
            for r in measured
        ) / len(measured),
        "serve.register_ms": sum(loop.register_ms) / n_models,
        "runtime.calibrate_ms": 1000.0 * per_name["runtime.calibrate"]
        / n_models,
        "codegen.emit_ms": 1000.0 * per_name["codegen.emit"] / n_models,
        "absint.analyze_ms": 1000.0 * per_name["absint.analyze"] / n_models,
        # Server CPU per request, each leg at its own host speed.
        "trace.overhead_pct": 100.0 * (
            request_ms(records) * common.median(plain.probes)
            / (request_ms(plain_records) * common.median(loop.probes))
            - 1.0
        ),
    })
    return {
        "problems": plain.problems + loop.problems,
        "attempted": len(plain_records) + len(records),
        "failed": sum(
            r.status != 200 for r in plain_records + records
        ),
        "values": values,
    }
