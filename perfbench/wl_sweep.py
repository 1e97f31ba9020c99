"""``sweep-batch``: one kernel's trace against a rank-style batch of design points.

Closed loop, one client, in-process. One op is one
``SweepSimulator.run`` of reduction (scale 0.01) over every third
feasible design point (645 points that collapse to 22 timing-distinct
simulations in 4 execution groups). The seed permutes the point order;
the work is the same. This drives the same memory layers as
``detailed-grid`` the other way round — many points per trace — so a
change that trades one for the other shows as a difference between the
two workloads.
"""

from __future__ import annotations

import random
import time
from typing import List

from common import (
    Context,
    HostClock,
    Outcome,
    freeze_setup_heap,
    instructions,
    median,
    put_latency_metrics,
    result_digest,
    load_expected,
    self_peak_rss_mb,
    settle_gc,
    timed_setup_probes,
    use_src,
)

KERNEL = "reduction"
SCALE = 0.01
STRIDE = 3
LATENCY_LIMIT_S = 5.0
MIN_OPS = 25


def rank_style_points(stride: int = STRIDE):
    """Every ``stride``-th feasible design point as a sweep point.

    One point per feasible (space, comm, locality, coherence, consistency)
    combination, labelled with the design point's label — what a ranking
    run submits. The same sample as the private
    ``repro.perf.bench._rank_style_points``, copied rather than imported
    so that the benchmark's input does not change or break when that
    legacy module is reworked or removed.
    """
    from repro.core.space import DesignSpace
    from repro.perf.sweep import SweepPoint
    from repro.taxonomy import CommMechanism

    return [
        SweepPoint(
            mechanism=point.comm,
            async_overlap=point.comm is CommMechanism.DMA_ASYNC,
            address_space=point.address_space,
            system_name=point.label,
        )
        for point in DesignSpace().feasible_points()[::stride]
    ]


def setup(ctx: Context) -> None:
    use_src()
    from repro.config.comm import CommParams
    from repro.config.system import SystemConfig
    from repro.kernels.registry import kernel
    from repro.perf.compiled import SHARED_COMPILE_CACHE
    from repro.perf.sweep import BatchedDesignPoints, SweepSimulator

    points = rank_style_points()
    random.Random(ctx.seed).shuffle(points)
    system, params = SystemConfig(), CommParams()
    trace = kernel(KERNEL).build().scaled(SCALE)
    batch = BatchedDesignPoints(points, system, params)
    # The sweep falls back to the shared compile cache whenever the one it
    # is given is empty, so warm that one, with one whole sweep: staging
    # into each address space makes segments of its own. The run checks
    # that the cache never misses again.
    SweepSimulator(system=system, comm_params=params).run(trace, batch)
    ctx.state.update(
        trace=trace,
        batch=batch,
        system=system,
        params=params,
        compile_cache=SHARED_COMPILE_CACHE,
    )
    freeze_setup_heap()


def setup_samples(ctx: Context) -> List[float]:
    return timed_setup_probes(ctx.workload)


def _op(ctx: Context, expected, clock: HostClock, recorder=None):
    """One sweep; returns (host-adjusted seconds, ok, results)."""
    from repro.perf.sweep import SweepSimulator

    compile_cache = ctx.state["compile_cache"]
    batch = ctx.state["batch"]
    misses = compile_cache.misses
    simulator = SweepSimulator(system=ctx.state["system"], comm_params=ctx.state["params"])
    settle_gc()
    clock.start()
    if recorder is None:
        results = simulator.run(ctx.state["trace"], batch)
    else:
        with recorder.span("op"):
            results = simulator.run(ctx.state["trace"], batch)
    elapsed = clock.stop()
    ok = compile_cache.misses == misses and len(results) == len(batch.points) and all(
        result_digest(r) == expected[p.label()] for p, r in zip(batch.points, results)
    )
    return elapsed, ok, results


def run(ctx: Context, out: Outcome) -> None:
    expected = load_expected(ctx, "sweep.json")["points"]
    batch = ctx.state["batch"]
    compile_cache = ctx.state["compile_cache"]
    misses_before = compile_cache.misses
    clock = HostClock()
    times: List[float] = []
    in_slo = 0
    distinct_instructions = 0.0
    window_start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - window_start < ctx.seconds:
        elapsed, ok, results = _op(ctx, expected, clock)
        times.append(elapsed)
        distinct_instructions = sum(instructions(results[i]) for i in batch.distinct)
        out.attempted += 1
        out.failed += not ok
        in_slo += ok and elapsed <= LATENCY_LIMIT_S
    put_latency_metrics(out, times, "sweeps")
    out.put("grid_s", median(times), "s")
    out.put("ops_per_s", len(times) / sum(times), "1/s")
    out.put("sim_minstr_per_s", distinct_instructions * len(times) / sum(times) / 1e6, "Minstr/s")
    out.put("slo_ratio", in_slo / out.attempted, "ratio")
    out.put("peak_rss_mb", self_peak_rss_mb(), "MB")
    out.notes.append(
        f"{len(times)} sweeps of {len(batch.points)} points "
        f"({len(batch.distinct)} distinct, {len(batch.groups())} groups); "
        f"compile misses in window {compile_cache.misses - misses_before}; "
        "grid_s is the median sweep"
    )
    out.notes.append(clock.note("sweeps"))


def traced(ctx: Context, out: Outcome, recorder) -> None:
    """One untraced sweep, then traced sweeps; work counts over the distinct points."""
    from layers import put_work_counts, traced_units

    expected = load_expected(ctx, "sweep.json")["points"]
    batch = ctx.state["batch"]
    compile_cache = ctx.state["compile_cache"]
    misses_before = compile_cache.misses
    clock = HostClock()

    def one_sweep(rec):
        elapsed, ok, results = _op(ctx, expected, clock, rec)
        out.attempted += 1
        out.failed += not ok
        return elapsed, results

    results, _ = traced_units(ctx.seconds, out, recorder, one_sweep)
    out.put("perf.compiled.misses_in_window", compile_cache.misses - misses_before, "count")
    out.put("perf.sweep.distinct_ratio", len(batch.distinct) / len(batch.points), "ratio")
    out.put("perf.sweep.groups", len(batch.groups()), "count")
    out.put("perf.sweep.points", len(batch.points), "count")
    put_work_counts(out, [results[i] for i in batch.distinct])
