"""``detailed-grid``: the Figure-5 grid through the detailed engine, cell by cell.

Closed loop, one client, in-process. One op is one (kernel, case-study)
cell through ``Explorer.run_case_studies_detailed`` at detailed scale
0.02 on ``Explorer(detailed=True, jobs=1)``; a run is whole passes over
all 30 cells with a fresh ``ResultCache`` per pass, so every run
measures the same cell mix. IDEAL-HETERO cells run the directory
protocol. Cell costs differ by two orders of magnitude, so the latency
percentiles are taken over the 30 per-cell medians, never over raw
samples where one cell's spread would decide the value.

The grid is a fixed input and the cells always run in Figure-5 order:
the seed does not reorder them. A pass triggers about 15 full (gen-2)
garbage collections, and they land on whichever cell is allocating at
the time; a seeded order would move them from cell to cell between runs
and turn them into run-to-run noise in the per-cell latencies. For the
same reason set-up's heap is frozen and every pass starts right after an
untimed collection (``common.freeze_setup_heap``, ``common.settle_gc``).
"""

from __future__ import annotations

import time
from typing import Dict, List

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

SCALE = 0.02
#: A cell answered correctly within this many seconds meets the SLO.
LATENCY_LIMIT_S = 5.0
#: Passes always completed by a run, however short ``--seconds`` is.
MIN_PASSES = 3


def cell_name(kernel_name: str, case_name: str) -> str:
    return f"{kernel_name}|{case_name}"


def setup(ctx: Context) -> None:
    """Import, build the scaled traces, warm the process-wide compile cache."""
    use_src()
    from repro.config.presets import CASE_STUDIES
    from repro.core.explorer import Explorer
    from repro.kernels.registry import all_kernels
    from repro.perf.compiled import SHARED_COMPILE_CACHE

    kernels = list(all_kernels())
    cases = list(CASE_STUDIES.values())
    # A fresh SegmentCompileCache() is empty, hence falsy, and the
    # simulator would silently swap in the shared one; so the shared one
    # is the cache that gets warmed, and the run asserts it never misses.
    for k in kernels:
        trace = k.trace().scaled(SCALE)
        for phase in trace.phases:
            for segment in (getattr(phase, "segment", None), getattr(phase, "cpu", None),
                            getattr(phase, "gpu", None)):
                if segment is not None:
                    SHARED_COMPILE_CACHE.get(segment)
    ctx.state.update(
        cells=[(k, c) for k in kernels for c in cases],
        explorer=Explorer(detailed=True, detailed_scale=SCALE, jobs=1),
        compile_cache=SHARED_COMPILE_CACHE,
    )
    freeze_setup_heap()


def setup_samples(ctx: Context) -> List[float]:
    return timed_setup_probes(ctx.workload)


def _run_pass(ctx: Context, order, expected: Dict[str, str], clock: HostClock, recorder=None):
    """One whole pass; returns (seconds, [(cell, seconds, ok, result)]).

    Times are host-adjusted (``common.HostClock``); the pass time is the
    sum of its cells'.
    """
    from repro.exec.cache import ResultCache

    explorer = ctx.state["explorer"]
    compile_cache = ctx.state["compile_cache"]
    explorer.result_cache = ResultCache()
    rows = []
    settle_gc()
    for k, c in order:
        misses = compile_cache.misses
        hits = explorer.result_cache.hits
        clock.start()
        if recorder is None:
            result = explorer.run_case_studies_detailed(kernels=[k], cases=[c])
        else:
            with recorder.span("op"):
                result = explorer.run_case_studies_detailed(kernels=[k], cases=[c])
        elapsed = clock.stop()
        result = result[k.name][c.name]
        name = cell_name(k.name, c.name)
        ok = (
            result_digest(result) == expected[name]
            and compile_cache.misses == misses
            and explorer.result_cache.hits == hits
        )
        rows.append((name, elapsed, ok, result))
    return sum(row[1] for row in rows), rows


def run(ctx: Context, out: Outcome) -> None:
    expected = load_expected(ctx, "grid.json")["cells"]
    cells = ctx.state["cells"]
    explorer = ctx.state["explorer"]
    compile_cache = ctx.state["compile_cache"]
    misses_before = compile_cache.misses
    clock = HostClock()
    pass_times: List[float] = []
    per_cell: Dict[str, List[float]] = {}
    in_slo = 0
    instructions_per_pass = 0.0
    hits_in_window = 0
    window_start = time.perf_counter()
    while True:
        seconds, rows = _run_pass(ctx, cells, expected, clock)
        hits_in_window += explorer.result_cache.hits
        pass_times.append(seconds)
        instructions_per_pass = sum(instructions(r) for *_, r in rows)
        for name, elapsed, ok, _ in rows:
            per_cell.setdefault(name, []).append(elapsed)
            out.attempted += 1
            out.failed += not ok
            in_slo += ok and elapsed <= LATENCY_LIMIT_S
        elapsed = time.perf_counter() - window_start
        if len(pass_times) >= MIN_PASSES and elapsed + median(pass_times) > ctx.seconds:
            break
    cell_medians = [median(v) for v in per_cell.values()]
    put_latency_metrics(out, cell_medians, f"per-cell medians of {len(pass_times)} passes")
    grid_s = median(pass_times)
    out.put("grid_s", grid_s, "s")
    out.put("ops_per_s", out.attempted / sum(pass_times), "1/s")
    out.put("sim_minstr_per_s", instructions_per_pass / grid_s / 1e6, "Minstr/s")
    out.put("slo_ratio", in_slo / out.attempted, "ratio")
    out.put("peak_rss_mb", self_peak_rss_mb(), "MB")
    out.notes.append(
        f"{len(pass_times)} passes of {len(cells)} cells ("
        + " ".join(f"{t:.3f}" for t in pass_times)
        + " s); "
        f"compile misses in window {compile_cache.misses - misses_before}, "
        f"result-cache hits in window {hits_in_window}"
    )
    out.notes.append(clock.note("cells"))


def traced(ctx: Context, out: Outcome, recorder) -> None:
    """One untraced pass, then traced passes; layer figures are per pass."""
    from layers import put_work_counts, traced_units

    expected = load_expected(ctx, "grid.json")["cells"]
    cells = ctx.state["cells"]
    explorer = ctx.state["explorer"]
    compile_cache = ctx.state["compile_cache"]
    misses_before = compile_cache.misses
    hits = []
    clock = HostClock()

    def one_pass(rec):
        seconds, rows = _run_pass(ctx, cells, expected, clock, rec)
        hits.append(explorer.result_cache.hits)
        for _, _, ok, _ in rows:
            out.attempted += 1
            out.failed += not ok
        return seconds, rows

    rows, calls = traced_units(ctx.seconds, out, recorder, one_pass)
    out.put("mem.coherence.calls", calls.get("mem.coherence", 0), "count")
    out.put("perf.compiled.misses_in_window", compile_cache.misses - misses_before, "count")
    out.put("exec.result_cache.hits_in_window", sum(hits), "count")
    out.put("exec.result_cache.hits", explorer.result_cache.hits, "count")
    out.put("exec.result_cache.misses", explorer.result_cache.misses, "count")
    put_work_counts(out, [result for *_, result in rows])
