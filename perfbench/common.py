"""Shared plumbing for the workloads: paths, statistics, fingerprint, result line.

Every workload module exposes ``setup(ctx)``, ``setup_samples(ctx)``,
``run(ctx, out)`` and ``traced(ctx, out, recorder)``; this module holds
what they have in common. Nothing
here imports ``repro``: the harness must be able to notice a missing
source tree and fail cleanly before touching the program.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "benchmarks" / "output"
#: Scratch space for stores and temporary files; listed in .gitignore.
SCRATCH = ROOT / ".bench_tmp"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def use_src() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def freeze_setup_heap() -> None:
    """Take what set-up allocated out of the garbage collector's view.

    Set-up leaves tens of thousands of long-lived objects (traces,
    compiled segments, the explorer) that every full collection would
    walk again: about 15 full collections a grid pass cost 0.5-0.7 s,
    landing on whichever op was allocating. Frozen, the same collections
    cost about a quarter of that. Objects the ops allocate stay collected
    as usual.
    """
    gc.collect()
    gc.freeze()


def settle_gc() -> None:
    """Collect before a measured unit (untimed), so every pass or sweep
    starts from the same collector state and its collections fall on the
    same ops."""
    gc.collect()


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing tree, bad argument)."""


@dataclass
class Context:
    """One invocation's parameters plus what setup handed to the run."""

    workload: str
    seed: int
    seconds: float
    expected_dir: Path
    state: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """What a measured run produced: op latencies, failures, metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, "tuple[float, str]"] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> "tuple[float, float]":
    """(value, percentile) of the highest percentile with 10 samples beyond.

    The value is the 11th-largest sample, so exactly ``TAIL_BEYOND``
    samples lie above it; its percentile is ``100 * (n - 10) / n``.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise BenchError(
            f"{n} samples cannot carry a tail with {TAIL_BEYOND} beyond it"
        )
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartile_spread(values: Sequence[float]) -> float:
    """IQR as a share of the median (``statistics.quantiles`` quartiles)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def put_latency_metrics(
    out: Outcome,
    latencies_s: Sequence[float],
    what: str,
) -> None:
    """``op_p50_ms`` and ``op_tail_ms`` plus a note naming the percentile."""
    value, pct = tail(latencies_s)
    out.put("op_p50_ms", median(latencies_s) * 1e3, "ms")
    out.put("op_tail_ms", value * 1e3, "ms")
    out.notes.append(
        f"op_tail_ms is p{pct:.1f} over {len(latencies_s)} {what} "
        f"({TAIL_BEYOND} beyond it)"
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- machine fingerprint -------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_jiffies() -> Optional[int]:
    """Cumulative steal time from ``/proc/stat`` (None where unavailable)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _loop_s(iterations: int) -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return time.perf_counter() - start


def calibration_ms() -> float:
    """Median of three runs of a fixed pure-Python loop (recorded only)."""
    return median([_loop_s(300_000) for _ in range(3)]) * 1e3


#: Iterations of the two loops that bracket every timed op.
HOST_LOOP_ITERATIONS = 50_000
HOST_OBJECT_ITERATIONS = 25_000
#: Their time on the reference host (2-CPU Xeon VM, Python 3.11.7,
#: taken between busy ops). Host-adjusted times read as seconds on a
#: host that runs the loops this fast.
REFERENCE_LOOP_S = 0.0125
#: A timed op that starts this soon after the last one ended reuses the
#: loops that closed it instead of running them again.
REUSE_LOOP_S = 0.05


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _object_loop_s(iterations: int) -> float:
    """Wall time of a fixed loop that allocates objects and reads attributes."""
    start = time.perf_counter()
    out = []
    for i in range(iterations):
        pair = _Pair(i, i + 1)
        out.append(pair.a + pair.b)
    return time.perf_counter() - start


def host_loop_s() -> float:
    """Arithmetic loop plus object loop, each the faster of two runs (so
    one preempted run does not count)."""
    return min(_loop_s(HOST_LOOP_ITERATIONS), _loop_s(HOST_LOOP_ITERATIONS)) + min(
        _object_loop_s(HOST_OBJECT_ITERATIONS), _object_loop_s(HOST_OBJECT_ITERATIONS)
    )


class HostClock:
    """Times ops in host-adjusted seconds.

    The benchmark runs on a few cores of a shared host whose speed moves
    by up to 2x within a minute: a fixed pure-Python loop took 76-118 ms
    from one 2 s stretch to the next, and over four minutes of sweeps the
    median sweep of one 20 s window was up to 60% slower than another's
    (IQR 24% across windows). So every op is bracketed by two short fixed
    loops (:func:`host_loop_s`), untimed, and its wall time is scaled by
    ``REFERENCE_LOOP_S`` over the loops' mean time before and after. On
    those sweeps the IQR across windows fell to 2-3%: the arithmetic loop
    alone left 13%, the object loop alone 9%. Work the program does
    shows in full; host speed mostly does not. Raw wall times are kept
    for the report.
    """

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.factors: List[float] = []
        self._before = 0.0
        self._start = 0.0
        self._closed_at = float("-inf")
        self._after = 0.0

    def start(self) -> None:
        if time.perf_counter() - self._closed_at < REUSE_LOOP_S:
            self._before = self._after
        else:
            self._before = host_loop_s()
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Host-adjusted seconds since :meth:`start`."""
        elapsed = time.perf_counter() - self._start
        self._after = host_loop_s()
        self._closed_at = time.perf_counter()
        factor = 2 * REFERENCE_LOOP_S / (self._before + self._after)
        self.raw.append(elapsed)
        self.factors.append(factor)
        return elapsed * factor

    def note(self, what: str) -> str:
        """One report line: raw wall times and host factors behind the figures."""
        return (
            f"{len(self.raw)} {what}: raw wall median {median(self.raw) * 1e3:.1f} ms, "
            f"sum {sum(self.raw):.2f} s; host factor median {median(self.factors):.3f} "
            f"(range {min(self.factors):.3f}-{max(self.factors):.3f})"
        )


class Fingerprint:
    """Host facts recorded beside every run; never used to normalise."""

    def __init__(self) -> None:
        self.steal_start = steal_jiffies()
        self.calibration_start_ms = calibration_ms()

    def finish(self, late_ms_max: float) -> Dict[str, object]:
        steal_end = steal_jiffies()
        ticks = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
        steal_ms = (
            (steal_end - self.steal_start) * 1e3 / ticks
            if steal_end is not None and self.steal_start is not None
            else 0.0
        )
        return {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "host.steal_ms": steal_ms,
            "host.calibration_ms": (self.calibration_start_ms + calibration_ms()) / 2,
            "gen.late_ms_max": late_ms_max,
        }


# -- child processes -----------------------------------------------------------


def run_child(argv: Sequence[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run a child interpreter from the checkout root and wait for it."""
    return subprocess.run(
        list(argv),
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
        check=False,
    )


def timed_setup_probes(workload: str, count: int = 3) -> List[float]:
    """Host-adjusted time of ``count`` fresh interpreters each doing ``workload``'s setup.

    A probe is a new process, so it pays interpreter start, every import
    and every cache warm-up exactly as the measured process did.
    """
    samples = []
    clock = HostClock()
    for _ in range(count):
        clock.start()
        proc = run_child(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", workload]
        )
        samples.append(clock.stop())
        if proc.returncode != 0:
            raise BenchError(
                f"setup probe for {workload} failed:\n"
                + proc.stderr.decode("utf-8", "replace")[-2000:]
            )
    return samples


# -- the result line -------------------------------------------------------------


def emit(out: Outcome, fingerprint: Dict[str, object], extra: Dict[str, object]) -> None:
    """Print the report, then the one-line JSON result (always last)."""
    for note in out.notes:
        print(f"# {note}")
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for key, value in sorted(extra.items()):
        print(f"# {key}: {value}")
    for name, (value, unit) in sorted(out.metrics.items()):
        print(f"{name:42s} {value:>16.6g} {unit}")
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))


# -- result digests --------------------------------------------------------------


def result_digest(result) -> str:
    """SHA-256 over every field of a ``SimulationResult``, floats by repr.

    Covers the breakdown, each phase timing, every counter and the
    ``degraded`` flag, so any change in simulated behaviour changes it.
    """
    b = result.breakdown
    parts = [
        result.kernel,
        result.system,
        repr((b.sequential, b.parallel, b.communication)),
        repr(
            [
                (p.label, p.kind, p.seconds, p.cpu_seconds, p.gpu_seconds,
                 p.overlapped_seconds)
                for p in result.phases
            ]
        ),
        repr(sorted(result.counters.items())),
        repr(result.degraded),
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def instructions(result) -> float:
    """CPU plus GPU instructions a detailed ``SimulationResult`` executed."""
    return result.counters["cpu_core.instructions"] + result.counters["gpu_core.instructions"]


def load_expected(ctx: Context, name: str) -> Dict:
    with open(ctx.expected_dir / name, encoding="utf-8") as handle:
        return json.load(handle)
