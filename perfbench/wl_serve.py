"""``serve-open``: an open loop of ``/v1/evaluate`` requests against ``serve``.

One generator process sends a seeded request schedule at a fixed rate to
``repro-explore serve --jobs 1 --store <dir>``, from two threads, one new
connection per request. Each request is timed from when it was *due*,
so a stall also charges the requests queued behind it.

The schedule is blocks of ``BLOCK`` requests, each shuffled, each
holding the same class mix:

- ``hot``: a few (kernel, point) pairs answered from the memo;
- ``cold``: pairs never seen, so the fast model runs and the result is
  written through to the store;
- ``durable``: pairs written to the store by an earlier server process,
  read back from disk after the restart;
- ``detailed``: one single-kernel detailed evaluation (dct, about 0.6 s)
  per block, which holds the one dispatcher thread and delays whatever
  arrives behind it.

p50 lies inside the hot class, below the quarter of requests that queue
behind a detailed one. The tail percentile (10 samples beyond it) lies
inside the cluster of detailed requests and the first requests queued
behind them, about 0.6 s: far above what a host stall of 0.1-0.2 s does
to a fast request, so the tail measures the detailed path, not the
host's worst stall. Every fresh pair is used once: the design space has
22 timing-distinct points, so 132 fast and 22 detailed pairs, which
bounds a run to 20 blocks (50 s).

Blocks are sent one after another: once a block's last answer is in,
the generator runs the host loops of ``common.HostClock`` and starts
the next block, so the loops never compete with a request, and each
block's latencies are host-adjusted by the loops around it.

Keep-alive connections are deliberately not used: the server writes each
reply's headers and body in two sends, which with Nagle's algorithm and
the client's delayed ACK puts a ~40 ms floor under every request on a
reused connection.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    SCRATCH,
    BenchError,
    Context,
    HostClock,
    Outcome,
    child_env,
    median,
    put_latency_metrics,
    ROOT,
    use_src,
)

#: Requests per second. This mix keeps its backlog flat up to about
#: 36/s on a 2-CPU host and falls behind at 42/s (README).
RATE = 24.0
#: One block (2.5 s at ``RATE``): its class mix, in requests. Cold and
#: durable pairs come in rounds of one per kernel; ten blocks (25 s) use
#: five whole rounds of each, so every seed prices the same kernel mix.
MIX = {"hot": 53, "cold": 3, "durable": 3, "detailed": 1}
BLOCK = sum(MIX.values())
DETAILED_KERNEL = "dct"
#: The trace scale the server's ``Explorer`` runs detailed requests at.
DETAILED_SCALE = 0.02
#: Requests answered correctly within this limit meet the SLO.
LATENCY_LIMIT_S = 2.0
THREADS = 2
READY_TIMEOUT_S = 60.0


# -- the server process -------------------------------------------------------------


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro-explore serve`` child: spawn, readiness, metrics, stop."""

    def __init__(self, store: str, log_path: str) -> None:
        self.log_path = log_path
        self.log = open(log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--jobs", "1",
             "--store", store],
            cwd=ROOT,
            env=child_env(),
            stdout=self.log,
            stderr=subprocess.STDOUT,
            # A shell that starts this benchmark in the background hands it
            # SIGINT ignored; the server would inherit that, ignore the
            # SIGINT that stop() sends and only die at the kill timeout.
            preexec_fn=_default_sigint,
        )
        try:
            self.port = self._port(start)
            self._wait_ready(start)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def _port(self, start: float) -> int:
        while time.perf_counter() - start < READY_TIMEOUT_S:
            with open(self.log_path, "rb") as handle:
                for line in handle.read().decode("utf-8", "replace").splitlines():
                    if line.startswith("serving on http://"):
                        return int(line.split(":")[2].split()[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError("serve did not report its address:\n" + self._tail())

    def _wait_ready(self, start: float) -> None:
        while time.perf_counter() - start < READY_TIMEOUT_S:
            try:
                status, _ = self.get("/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError("serve never became ready:\n" + self._tail())

    def _tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def post(self, body: bytes) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(
                "POST", "/v1/evaluate", body,
                {"Content-Type": "application/json", "Connection": "close"},
            )
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def scrape(self) -> Dict[str, float]:
        _, body = self.get("/metrics")
        metrics = {}
        for line in body.decode().splitlines():
            name, _, value = line.partition(" ")
            metrics[name] = float(value)
        return metrics

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# -- the request schedule -------------------------------------------------------------


def _body(point: str, kernel: str, fidelity: str) -> Dict[str, object]:
    return {"point": point, "kernels": [kernel], "fidelity": fidelity}


def build_schedule(seed: int, seconds: float):
    """Seeded (kernel, point) pools per class, and the schedule [(due_s, class, body)]."""
    use_src()
    from repro.core.space import DesignSpace
    from repro.kernels.registry import all_kernels
    from repro.taxonomy import CommMechanism

    rng = random.Random(seed)
    by_key: Dict[tuple, List[str]] = {}
    for point in DesignSpace().feasible_points():
        key = (point.comm, point.comm is CommMechanism.DMA_ASYNC, point.address_space)
        by_key.setdefault(key, []).append(point.label)
    # One seeded label per timing key: distinct keys are distinct work.
    labels = [rng.choice(by_key[key]) for key in sorted(by_key, key=str)]
    kernels = [k.name for k in all_kernels()]
    # Per kernel, the keys in seeded order: the first is that kernel's hot
    # pair, then durable and cold pairs dealt round-robin over kernels, so
    # every run prices the same kernel mix whatever the seed.
    orders = {k: rng.sample(labels, len(labels)) for k in kernels}
    half = (len(labels) + 1) // 2

    def dealt(positions: range) -> List[Tuple[str, str]]:
        pairs = []
        for i in positions:
            round_ = [(orders[k][i], k) for k in kernels]
            rng.shuffle(round_)
            pairs.extend(round_)
        return pairs

    # Detailed costs differ by timing key (dct: 0.4-0.7 s), so every
    # seed prices the same keys, the first ``blocks`` in key order, each
    # seed in its own order; the last key warms the server.
    detailed = [(label, DETAILED_KERNEL) for label in labels]
    pools = {
        "hot": [(orders[k][0], k) for k in kernels],
        "durable": dealt(range(1, half)),
        "cold": dealt(range(half, len(labels))),
        "detailed_warm": detailed[-1:],
        "detailed": detailed[:-1],
    }
    blocks = int(round(seconds * RATE / BLOCK))
    max_blocks = min(
        len(pools["durable"]) // MIX["durable"],
        len(pools["cold"]) // MIX["cold"],
        len(pools["detailed"]) // MIX["detailed"],
    )
    if not 1 <= blocks <= max_blocks:
        raise BenchError(
            f"serve-open runs 1..{max_blocks} blocks of {BLOCK} requests at "
            f"{RATE:g}/s ({max_blocks * BLOCK / RATE:g} s at most); asked for {seconds} s"
        )
    pools["detailed"] = rng.sample(pools["detailed"][:blocks], blocks)
    cursors = {name: 0 for name in MIX}
    schedule = []
    for block in range(blocks):
        classes = [name for name, count in MIX.items() for _ in range(count)]
        rng.shuffle(classes)
        for name in classes:
            if name == "hot":
                pair = pools["hot"][cursors["hot"] % len(pools["hot"])]
                cursors["hot"] += 1
            else:
                pair = pools[name][cursors[name]]
                cursors[name] += 1
            fidelity = "detailed" if name == "detailed" else "fast"
            schedule.append((name, _body(pair[0], pair[1], fidelity)))
    timed = [(i / RATE, name, body) for i, (name, body) in enumerate(schedule)]
    return pools, timed


# -- expected answers ---------------------------------------------------------------------


def expected_answers(bodies: List[Dict[str, object]]) -> Dict[str, dict]:
    """In-process answers: ``Explorer().evaluate_design_point`` for fast
    requests, the service's own detailed path for detailed ones."""
    from repro.core.explorer import Explorer
    from repro.core.space import DesignSpace
    from repro.kernels.registry import kernel
    from repro.serve.server import ExplorationService

    points = {p.label: p for p in DesignSpace().feasible_points()}
    explorer = Explorer()
    service = ExplorationService(lambda: Explorer(jobs=1))
    service.start()
    answers = {}
    try:
        for body in bodies:
            key = json.dumps(body, sort_keys=True)
            if key in answers:
                continue
            if body["fidelity"] == "fast":
                e = explorer.evaluate_design_point(
                    points[body["point"]], [kernel(name) for name in body["kernels"]]
                )
                answers[key] = {
                    "point": e.point.label,
                    "fidelity": "fast",
                    "degraded": False,
                    "mean_seconds": e.mean_seconds,
                    "mean_comm_fraction": e.mean_comm_fraction,
                    "comm_lines_total": e.comm_lines_total,
                    "locality_options": e.locality_options,
                }
            else:
                answers[key] = service.evaluate(dict(body))
    finally:
        service.stop()
    return answers


def instructions_of(body: Dict[str, object]) -> float:
    """CPU+GPU instructions of the simulation a request triggers when fresh."""
    from repro.kernels.registry import kernel

    trace = kernel(body["kernels"][0]).trace()
    if body["fidelity"] == "detailed":
        trace = trace.scaled(DETAILED_SCALE)
    return trace.cpu_instructions + trace.gpu_instructions + trace.serial_instructions


# -- the load generator ----------------------------------------------------------------------


def _send_block(server: Server, schedule, payloads, rows, block: range) -> None:
    """Send one block open-loop from two threads; fills ``rows[i]`` for ``i`` in it."""
    lock = threading.Lock()
    pending = list(block)
    t0 = time.perf_counter() + 0.005 - schedule[block[0]][0]

    def worker() -> None:
        while True:
            with lock:
                if not pending:
                    return
                i = pending.pop(0)
            due = t0 + schedule[i][0]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                status, reply = server.post(payloads[i])
            except OSError as exc:
                status, reply = 0, str(exc).encode()
            done = time.perf_counter()
            rows[i] = (schedule[i][1], schedule[i][2], done - due, sent - due, status, reply)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def drive(server: Server, schedule) -> "Tuple[List[tuple], List[float]]":
    """Send ``schedule`` open-loop, block by block.

    Returns rows of (class, body, latency, late, status, reply) and each
    row's host factor. Between blocks, once the last answer is in and
    nothing is in flight, the generator runs the host loops of
    ``common.HostClock``; a block's requests share the factor taken from
    the loops before and after it. The pause is not part of any
    request's time.
    """
    rows: List[Optional[tuple]] = [None] * len(schedule)
    factors: List[float] = [0.0] * len(schedule)
    payloads = [json.dumps(body).encode() for _, _, body in schedule]
    clock = HostClock()
    for first in range(0, len(schedule), BLOCK):
        block = range(first, min(first + BLOCK, len(schedule)))
        clock.start()
        _send_block(server, schedule, payloads, rows, block)
        clock.stop()
        for i in block:
            factors[i] = clock.factors[-1]
    return rows, factors  # type: ignore[return-value]


def _spawn(ctx: Context, store: str) -> Server:
    server = Server(store, str(SCRATCH / f"serve-{os.getpid()}.log"))
    ctx.state.setdefault("starts", []).append(server.start_s)
    return server


def _post_ok(server: Server, body: Dict[str, object]) -> None:
    status, reply = server.post(json.dumps(body).encode())
    if status != 200:
        raise BenchError(f"set-up request {body} failed: {status} {reply!r}")


def setup(ctx: Context) -> None:
    """Three server starts: pre-write the durable pairs, restart, restart."""
    SCRATCH.mkdir(exist_ok=True)
    store = SCRATCH / f"serve-store-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    ctx.state["store"] = store
    pools, schedule = build_schedule(ctx.seed, ctx.seconds)
    ctx.state.update(pools=pools, schedule=schedule)
    server = _spawn(ctx, str(store))
    try:
        for p, k in pools["durable"] + pools["hot"]:
            _post_ok(server, _body(p, k, "fast"))
    finally:
        server.stop()
    _spawn(ctx, str(store)).stop()
    server = _spawn(ctx, str(store))
    try:
        # The measured server reads the hot pairs into its memo and
        # compiles the detailed kernel's segments once, off the clock.
        for p, k in pools["hot"]:
            _post_ok(server, _body(p, k, "fast"))
        for p, k in pools["detailed_warm"]:
            _post_ok(server, _body(p, k, "detailed"))
    except BaseException:
        server.stop()
        raise
    ctx.state["server"] = server


def setup_samples(ctx: Context) -> List[float]:
    """The three server starts of :func:`setup`, spawn to ``/readyz`` 200."""
    return ctx.state["starts"]


def teardown(ctx: Context) -> None:
    server = ctx.state.get("server")
    if server is not None:
        server.stop()
    store = ctx.state.get("store")
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)
    log = SCRATCH / f"serve-{os.getpid()}.log"
    if log.exists():
        log.unlink()


def _score(out: Outcome, rows, latencies) -> "Tuple[Dict[str, List[float]], int]":
    """Check every answer; returns latencies by class and answers within the SLO."""
    answers = expected_answers([body for _, body, *_ in rows])
    by_class: Dict[str, List[float]] = {}
    in_slo = 0
    for (name, body, _, _, status, reply), latency in zip(rows, latencies):
        ok = False
        if status == 200:
            got = json.loads(reply)
            ok = got == answers[json.dumps(body, sort_keys=True)] and got["degraded"] is False
        out.attempted += 1
        out.failed += not ok
        in_slo += ok and latency <= LATENCY_LIMIT_S
        by_class.setdefault(name, []).append(latency)
    return by_class, in_slo


def _block_spans(schedule, rows) -> List[float]:
    """Per block: from its first request's due time to its last answer."""
    spans = []
    for first in range(0, len(rows), BLOCK):
        block = range(first, min(first + BLOCK, len(rows)))
        spans.append(max(schedule[i][0] + rows[i][2] for i in block) - schedule[first][0])
    return spans


def run(ctx: Context, out: Outcome) -> None:
    server: Server = ctx.state["server"]
    schedule = ctx.state["schedule"]
    rows, factors = drive(server, schedule)
    out.put("peak_rss_mb", server.peak_rss_mb(), "MB")
    # Latencies are host-adjusted; block spans follow the schedule, so
    # they, and the rates over them, stay plain wall time.
    latencies = [row[2] * factor for row, factor in zip(rows, factors)]
    by_class, in_slo = _score(out, rows, latencies)
    out.put("slo_ratio", in_slo / len(rows), "ratio")
    put_latency_metrics(out, latencies, "requests")
    spans = _block_spans(schedule, rows)
    out.put("grid_s", median(spans), "s")
    out.put("ops_per_s", len(rows) / sum(spans), "1/s")
    fresh = sum(instructions_of(body) for name, body, *_ in rows if name in ("cold", "detailed"))
    out.put("sim_minstr_per_s", fresh / sum(spans) / 1e6, "Minstr/s")
    late = max(row[3] for row in rows)
    ctx.state["late_ms_max"] = late * 1e3
    out.notes.append(
        f"raw latency p50 {median([row[2] for row in rows]) * 1e3:.2f} ms; host factor per "
        f"block median {median(factors):.3f} (range {min(factors):.3f}-{max(factors):.3f})"
    )
    out.notes.append(
        f"{len(rows)} requests at {RATE:g}/s in {len(rows) // BLOCK} blocks; "
        + ", ".join(
            f"{name} p50 {median(v) * 1e3:.2f} ms (n={len(v)})" for name, v in sorted(by_class.items())
        )
        + f"; grid_s is the median wall time of one {BLOCK}-request block, "
        "first due to last answered"
    )


def traced(ctx: Context, out: Outcome, recorder) -> None:
    """HTTP run for client latency, then the same requests in-process."""
    from layers import SELF_MS_METRICS, patch_layers

    server: Server = ctx.state["server"]
    rows, _ = drive(server, ctx.state["schedule"])
    ctx.state["late_ms_max"] = max(row[3] for row in rows) * 1e3
    _score(out, rows, [row[2] for row in rows])
    scraped = server.scrape()
    out.put("serve.queue.coalesced", scraped.get("serve.queue.coalesced", 0.0), "count")
    out.put("serve.queue.shed", scraped.get("serve.queue.shed", 0.0), "count")
    out.put("store.hits", scraped.get("store.hits", 0.0), "count")
    out.put("store.misses", scraped.get("store.misses", 0.0), "count")
    out.put("store.corruptions", scraped.get("store.corruptions", 0.0), "count")
    out.put("exec.result_cache.hits", scraped.get("exec.cache.result.hits", 0.0), "count")
    out.put("exec.result_cache.misses", scraped.get("exec.cache.result.misses", 0.0), "count")

    from repro.core.explorer import Explorer
    from repro.serve.server import ExplorationService
    from repro.store import ResultStore

    store_dir = SCRATCH / f"serve-inproc-{os.getpid()}"
    shutil.rmtree(store_dir, ignore_errors=True)
    pools = ctx.state["pools"]
    try:
        store = ResultStore(str(store_dir))
        warm = ExplorationService(lambda: Explorer(jobs=1, store=store))
        warm.start()
        for p, k in pools["durable"] + pools["hot"]:
            warm.evaluate(_body(p, k, "fast"))
        warm.stop()
        store.close()
        store = ResultStore(str(store_dir))
        service = ExplorationService(lambda: Explorer(jobs=1, store=store))
        service.start()
        for p, k in pools["hot"]:
            service.evaluate(_body(p, k, "fast"))
        for p, k in pools["detailed_warm"]:
            service.evaluate(_body(p, k, "detailed"))
        patch_layers(recorder)
        recorder.patch("repro.store.store", "ResultStore.put_object", "store.put")
        recorder.patch("repro.store.store", "ResultStore.get_object", "store.get")
        evaluate_s = []
        try:
            for _, _, body in ctx.state["schedule"]:
                start = time.perf_counter()
                service.evaluate(dict(body))
                evaluate_s.append(time.perf_counter() - start)
        finally:
            recorder.restore()
            service.stop()
            store.close()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    self_s, calls = recorder.snapshot()
    for layer, metric in SELF_MS_METRICS.items():
        out.put(metric, self_s.get(layer, 0.0) * 1e3, "ms")
    client = median([row[2] for row in rows])
    out.put("serve.evaluate_ms", median(evaluate_s) * 1e3, "ms")
    out.put("serve.http_overhead_ms", (client - median(evaluate_s)) * 1e3, "ms")
    out.put("sim.fast.run_us", self_s.get("sim.fast", 0.0) / max(calls.get("sim.fast", 0), 1) * 1e6, "us")
    out.put("sim.fast.runs", calls.get("sim.fast", 0), "count")
    out.put("store.put_ms", self_s.get("store.put", 0.0) / max(calls.get("store.put", 0), 1) * 1e3, "ms")
    out.put("store.get_ms", self_s.get("store.get", 0.0) / max(calls.get("store.get", 0), 1) * 1e3, "ms")
    out.notes.append(
        f"{len(rows)} HTTP requests, then the same {len(evaluate_s)} in-process; "
        "store.* and exec.* counts are the HTTP server's, times the in-process run's "
        "(layer self times summed over it)"
    )
