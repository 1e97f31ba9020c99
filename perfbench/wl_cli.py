"""``paper-cli``: the paper's headline commands, each a cold CLI process.

Closed loop, one client. One op is one ``python -m repro.cli <command>``
process, rotating in seeded order over ``table 5``, ``figure 5``,
``figure 6``, ``figure 7``, ``compare`` and ``rank``; a run is whole
rotations. Interpreter start and ``import repro.cli`` are most of every
op, so this is where import-time work shows; it never reaches the
detailed engine or ``repro.mem``.
"""

from __future__ import annotations

import random
import re
import sys
import time
from typing import Dict, Iterable, List

from common import (
    GOLDEN_DIR,
    Context,
    HostClock,
    Outcome,
    children_peak_rss_mb,
    median,
    put_latency_metrics,
    load_expected,
    run_child,
    use_src,
)

#: (command argv, expected-output file or None, required substring or None).
COMMANDS = (
    (("table", "5"), GOLDEN_DIR / "table5.txt", None),
    (("figure", "5"), GOLDEN_DIR / "figure5.txt", None),
    (("figure", "6"), GOLDEN_DIR / "figure6.txt", None),
    (("figure", "7"), GOLDEN_DIR / "figure7.txt", None),
    (("compare",), None, b"30/30 checks passed"),
    (("rank",), "rank.txt", None),
)
LATENCY_LIMIT_S = 2.0
MIN_ROTATIONS = 3


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def setup_samples(ctx: Context) -> List[float]:
    """Three cold ``repro-explore --version``: interpreter start plus CLI import."""
    samples = []
    clock = HostClock()
    for _ in range(3):
        clock.start()
        proc = run_child(_cli("--version"))
        samples.append(clock.stop())
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode("utf-8", "replace"))
    return samples


def setup(ctx: Context) -> None:
    expected = {}
    for argv, source, needle in COMMANDS:
        if needle is not None:
            expected[argv] = ("contains", needle)
        else:
            path = source if not isinstance(source, str) else ctx.expected_dir / source
            expected[argv] = ("equals", path.read_bytes())
    ctx.state["expected"] = expected
    ctx.state["instructions"] = {
        tuple(k.split()): v for k, v in load_expected(ctx, "cli.json")["instructions"].items()
    }


def _check(expected, proc) -> bool:
    mode, value = expected
    if proc.returncode != 0:
        return False
    return proc.stdout == value if mode == "equals" else value in proc.stdout


def run(ctx: Context, out: Outcome) -> None:
    rng = random.Random(ctx.seed)
    expected = ctx.state["expected"]
    instructions = ctx.state["instructions"]
    latencies: List[float] = []
    rotation_times: List[float] = []
    in_slo = 0
    clock = HostClock()
    window_start = time.perf_counter()
    while True:
        order = [argv for argv, _, _ in COMMANDS]
        rng.shuffle(order)
        rotation = 0.0
        for argv in order:
            clock.start()
            proc = run_child(_cli(*argv))
            elapsed = clock.stop()
            ok = _check(expected[argv], proc)
            latencies.append(elapsed)
            rotation += elapsed
            out.attempted += 1
            out.failed += not ok
            in_slo += ok and elapsed <= LATENCY_LIMIT_S
        rotation_times.append(rotation)
        elapsed = time.perf_counter() - window_start
        if len(rotation_times) >= MIN_ROTATIONS and elapsed + median(rotation_times) > ctx.seconds:
            break
    # Rates are over the median rotation, not the sum of all ops: one
    # cold process stalled by the host would otherwise move them.
    rotation_s = median(rotation_times)
    put_latency_metrics(out, latencies, "cold CLI processes")
    out.put("grid_s", rotation_s, "s")
    out.put("ops_per_s", len(COMMANDS) / rotation_s, "1/s")
    out.put("sim_minstr_per_s", sum(instructions.values()) / rotation_s / 1e6, "Minstr/s")
    out.put("slo_ratio", in_slo / out.attempted, "ratio")
    out.put("peak_rss_mb", children_peak_rss_mb(), "MB")
    out.notes.append(
        f"{len(rotation_times)} rotations of {len(COMMANDS)} commands; "
        "grid_s is the median rotation"
    )
    out.notes.append(clock.note("cold CLI processes"))


# -- traced run: import profile and in-process assembly ---------------------------

_PROBE = (
    "import sys, time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t, "
    "sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')), "
    "int('numpy' in sys.modules))"
)


def import_profile(out: Outcome, known: Iterable[str], repeats: int = 3) -> None:
    """``cli.*``: interpreter start, ``import repro.cli``, per-package import time.

    ``known`` are the package keys with a metric of their own
    (``cli.import.<key>_ms``); time in any other package counts under
    ``other``, so a new subpackage never makes an undeclared metric.
    """
    known = set(known)
    interp, imports, packages = [], [], {}
    for _ in range(repeats):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interp.append(time.perf_counter() - start)
        proc = run_child([sys.executable, "-c", _PROBE])
        seconds, modules, numpy_loaded = proc.stdout.split()
        imports.append(float(seconds))
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import repro.cli"])
        per_run: Dict[str, float] = {}
        for package, micros in _importtime_by_package(proc.stderr.decode()).items():
            key = package if package in known else "other"
            per_run[key] = per_run.get(key, 0.0) + micros
        for key, micros in per_run.items():
            packages.setdefault(key, []).append(micros / 1e3)
    out.put("cli.interp_ms", median(interp) * 1e3, "ms")
    out.put("cli.import_ms", median(imports) * 1e3, "ms")
    out.put("cli.repro_modules", int(modules), "count")
    out.put("cli.numpy_loaded", int(numpy_loaded), "bool")
    for package, values in packages.items():
        out.put(f"cli.import.{package}_ms", median(values), "ms")


_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def _importtime_by_package(stderr: str) -> Dict[str, float]:
    """Self import time (us) per ``repro`` subpackage, plus ``numpy`` and ``other``."""
    totals: Dict[str, float] = {}
    for line in stderr.splitlines():
        match = _LINE.match(line)
        if not match:
            continue
        self_us, module = int(match.group(1)), match.group(4)
        parts = module.split(".")
        if parts[0] == "repro":
            key = parts[1] if len(parts) > 2 else "top"
        elif parts[0] == "numpy":
            key = "numpy"
        else:
            key = "other"
        totals[key] = totals.get(key, 0.0) + self_us
    return totals


def traced(ctx: Context, out: Outcome, recorder) -> None:
    """Assemble the paper outputs in-process with imports warm."""
    use_src()
    from layers import patch_layers

    from repro.analysis import compare, figures, tables
    from repro.core.explorer import Explorer

    golden5 = (GOLDEN_DIR / "figure5.txt").read_text()
    golden_t5 = (GOLDEN_DIR / "table5.txt").read_text()
    times, fast_times, fast_runs = [], [], 0
    patch_layers(recorder)
    try:
        window_start = time.perf_counter()
        while True:
            recorder.reset()
            start = time.perf_counter()
            fig5 = figures.figure5_text(Explorer())
            checks = compare.compare_all()
            table5 = tables.table5()
            times.append(time.perf_counter() - start)
            self_s, calls = recorder.snapshot()
            fast_runs = calls.get("sim.fast", 0)
            fast_times.append(self_s.get("sim.fast", 0.0) / max(fast_runs, 1))
            for ok in (
                fig5 + "\n" == golden5,
                all(c.passed for c in checks),
                table5 + "\n" == golden_t5,
            ):
                out.attempted += 1
                out.failed += not ok
            if time.perf_counter() - window_start > ctx.seconds:
                break
    finally:
        recorder.restore()
    out.put("analysis.assemble_ms", median(times) * 1e3, "ms")
    out.put("sim.fast.run_us", median(fast_times) * 1e6, "us")
    out.put("sim.fast.runs", fast_runs, "count")
