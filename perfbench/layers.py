"""Per-layer host-time spans and work counts, recorded from outside the program.

The traced run replaces public entry points of each layer with timing
wrappers (class attributes and the module-level names callers bound at
import). Each call is a span; a layer's *self time* is its spans'
duration minus the part covered by the child spans they caused, kept on
an explicit stack, so recursion through the hierarchy (L1 -> L2 -> ring
-> L3 -> ring -> DRAM) attributes each level once. Spans are aggregated
in memory as per-layer self time and call counts — a detailed pass makes
millions of them, too many to keep one by one.

Nothing here edits ``src/``: the wrappers live only in the benchmark
process, only in the traced run, and :meth:`SpanRecorder.restore` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from common import Outcome, instructions, median


class SpanRecorder:
    """Aggregates wrapped calls into per-layer self time and call counts."""

    def __init__(self) -> None:
        self._stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _wrap_call(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """A span per resumption of a generator (the per-instruction steppers)."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            calls[layer] += 1
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    value = next(steps)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    self_s[layer] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                yield value

        return wrapper

    def span(self, layer: str) -> "_Span":
        """A ``with`` span for code in the benchmark itself (the op root)."""
        return _Span(self, layer)

    # -- patching ----------------------------------------------------------------

    def patch(self, module: str, attr: str, layer: str, generator: bool = False) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``)."""
        owner: object = importlib.import_module(module)
        name = attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        wrap = self._wrap_generator if generator else self._wrap_call
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(wrap(layer, original.__func__))
        else:
            wrapped = wrap(layer, original)
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()

    def snapshot(self) -> "Tuple[Dict[str, float], Dict[str, int]]":
        return dict(self.self_s), dict(self.calls)


class _Span:
    def __init__(self, recorder: SpanRecorder, layer: str) -> None:
        self.recorder = recorder
        self.layer = layer

    def __enter__(self) -> "_Span":
        self.recorder._stack.append(0.0)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        rec = self.recorder
        elapsed = time.perf_counter() - self.start
        rec.self_s[self.layer] += elapsed - rec._stack.pop()
        rec.calls[self.layer] += 1
        if rec._stack:
            rec._stack[-1] += elapsed


def traced_units(seconds: float, out: Outcome, recorder: SpanRecorder, unit: Callable):
    """One untraced ``unit``, then traced ones until ``seconds`` are spent.

    ``unit(recorder_or_None)`` does one whole pass or sweep and returns
    ``(seconds, payload)``. Puts each layer's median self time per unit,
    the op root's self time (what no wrapped layer covers) and the
    tracing overhead (traced minus untraced unit); returns the last
    traced unit's payload and call counts.
    """
    window_start = time.perf_counter()
    untraced_s, _ = unit(None)
    patch_layers(recorder)
    times: List[float] = []
    per_layer: Dict[str, List[float]] = {}
    try:
        while True:
            recorder.reset()
            elapsed, payload = unit(recorder)
            times.append(elapsed)
            for layer, value in recorder.self_s.items():
                per_layer.setdefault(layer, []).append(value)
            if time.perf_counter() - window_start + median(times) > seconds:
                break
    finally:
        recorder.restore()
    for layer, metric in SELF_MS_METRICS.items():
        out.put(metric, median(per_layer.get(layer, [0.0])) * 1e3, "ms")
    out.put("attrib.unattributed_ms", median(per_layer["op"]) * 1e3, "ms")
    out.put("attrib.tracing_overhead_s", median(times) - untraced_s, "s")
    out.notes.append(
        f"untraced unit {untraced_s:.3f} s, traced " + " ".join(f"{t:.3f}" for t in times)
        + " s; layer times are medians per unit"
    )
    return payload, dict(recorder.calls)


def put_work_counts(out: Outcome, results) -> None:
    """Layer work counts summed over ``results`` (exact, host-independent)."""
    total: Dict[str, float] = {}
    for result in results:
        for key, value in result.counters.items():
            total[key] = total.get(key, 0.0) + value

    def get(key: str) -> float:
        return total.get(key, 0.0)

    def level(prefix: str, names: Tuple[str, ...]) -> None:
        hits = sum(get(f"{n}.hits") for n in names)
        misses = sum(get(f"{n}.misses") for n in names)
        out.put(f"mem.cache.{prefix}_accesses", hits + misses, "count")
        out.put(f"mem.cache.{prefix}_miss_ratio", misses / (hits + misses) if hits + misses else 0.0, "ratio")

    out.put("sim.cores.instructions", sum(instructions(r) for r in results), "count")
    level("l1d", ("cpu.l1d", "gpu.l1d"))
    level("l2", ("cpu.l2",))
    level("l3", ("l3",))
    out.put("mem.interconnect.ring_messages", get("ring.messages"), "count")
    requests = get("dram.requests")
    out.put("mem.dram.requests", requests, "count")
    out.put("mem.dram.row_hit_ratio", get("dram.row_hits") / requests if requests else 0.0, "ratio")
    out.put("comm.transfers", get("transfers"), "count")
    out.put("comm.bytes", get("bytes_moved"), "bytes")


#: Entry points of the simulation layers: (module, attribute, layer, generator).
#: Names imported into ``repro.sim.detailed`` / ``repro.perf.sweep`` with
#: ``from ... import`` are patched where they are looked up.
SIM_LAYERS = (
    ("repro.kernels.base", "Kernel.trace", "trace", False),
    ("repro.trace.stream", "KernelTrace.scaled", "trace", False),
    ("repro.perf.compiled", "CompiledSegment.from_segment", "perf.compiled", False),
    ("repro.sim.detailed", "DetailedSimulator.run", "sim.detailed", False),
    ("repro.sim.detailed", "build_machine", "sim.system.build_machine", False),
    ("repro.perf.sweep", "build_machine", "sim.system.build_machine", False),
    ("repro.sim.detailed", "run_parallel_interleaved", "sim.engine.interleaved", False),
    ("repro.perf.sweep", "run_parallel_interleaved", "sim.engine.interleaved", False),
    ("repro.sim.cpu.core", "CpuCore.run_compiled", "sim.cores", False),
    ("repro.sim.gpu.core", "GpuCore.run_compiled", "sim.cores", False),
    ("repro.sim.cpu.core", "CpuCore.step_compiled", "sim.cores", True),
    ("repro.sim.gpu.core", "GpuCore.step_compiled", "sim.cores", True),
    ("repro.perf.sweep", "cpu_run_compiled_batch", "sim.cores", False),
    ("repro.perf.sweep", "gpu_run_compiled_batch", "sim.cores", False),
    ("repro.perf.sweep", "SweepSimulator.run", "perf.sweep", False),
    ("repro.mem.cache.cache", "Cache.access", "mem.cache", False),
    ("repro.mem.cache.cache", "Cache.access_latency", "mem.cache", False),
    ("repro.mem.cache.cache", "Cache.access_latency_located", "mem.cache", False),
    ("repro.sim.system", "CoherentFront.access", "mem.coherence", False),
    ("repro.mem.coherence.directory", "Directory.access", "mem.coherence", False),
    ("repro.mem.coherence.snoop", "SnoopBus.access", "mem.coherence", False),
    ("repro.mem.interconnect.ring", "RingPath.access", "mem.interconnect", False),
    ("repro.mem.dram.controller", "MemoryController.service", "mem.dram", False),
    ("repro.comm.base", "CommChannel.transfer", "comm", False),
    ("repro.sim.fast", "FastSimulator.run", "sim.fast", False),
)


#: The layers setup goes through: trace build and segment compilation.
SETUP_LAYERS = tuple(entry for entry in SIM_LAYERS if entry[2] in ("trace", "perf.compiled"))


def patch_layers(recorder: SpanRecorder, layers=SIM_LAYERS) -> None:
    for module, attr, layer, generator in layers:
        recorder.patch(module, attr, layer, generator=generator)


#: Self-time layers reported in milliseconds, with the metric each feeds.
SELF_MS_METRICS = {
    "trace": "trace.in_ops_ms",
    "sim.detailed": "sim.detailed.run_ms",
    "sim.system.build_machine": "sim.system.build_machine_ms",
    "sim.engine.interleaved": "sim.engine.interleaved_ms",
    "sim.cores": "sim.cores.self_ms",
    "perf.sweep": "perf.sweep.run_ms",
    "mem.cache": "mem.cache.self_ms",
    "mem.coherence": "mem.coherence.self_ms",
    "mem.interconnect": "mem.interconnect.self_ms",
    "mem.dram": "mem.dram.self_ms",
    "comm": "comm.transfer_ms",
}
