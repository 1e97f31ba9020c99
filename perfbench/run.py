"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload detailed-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is a separate run that wraps
each layer's entry points and prints the per-layer metrics instead. The
last line of standard output is the JSON result; lines before it are the
human-readable report (``#`` lines carry the tail percentile, sample
counts and the machine fingerprint). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402 - after the path tweak above
    BENCH_DIR,
    ROOT,
    SCRATCH,
    SRC,
    BenchError,
    Context,
    Fingerprint,
    Outcome,
    emit,
    median,
    use_src,
)

WORKLOADS = {
    "paper-cli": "wl_cli",
    "detailed-grid": "wl_grid",
    "sweep-batch": "wl_sweep",
    "serve-open": "wl_serve",
}


def _module(workload: str):
    return __import__(WORKLOADS[workload])


def _declared(kind: str) -> dict:
    """``{name: unit}`` for one metric list of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _check_names(out: Outcome, declared: dict, fill: bool) -> None:
    """Every metric is declared with this unit; with ``fill``, absent ones read 0."""
    for name, (_, unit) in out.metrics.items():
        if declared.get(name) != unit:
            raise BenchError(f"metric {name!r} ({unit}) is not declared in BENCHMARK.json")
    missing = [name for name in declared if name not in out.metrics]
    if missing and not fill:
        raise BenchError(f"metrics not measured: {missing}")
    if missing:
        out.notes.append("layers this workload does not reach (reported as 0): " + " ".join(missing))
        for name in missing:
            out.put(name, 0.0, declared[name])


def measure(ctx: Context, trace: bool) -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a repository checkout")
    use_src()
    module = _module(ctx.workload)
    out = Outcome()
    fingerprint = Fingerprint()
    SCRATCH.mkdir(exist_ok=True)
    extra = {"workload": ctx.workload, "seed": ctx.seed}
    try:
        if trace:
            from layers import SETUP_LAYERS, SpanRecorder, patch_layers
            from wl_cli import import_profile

            recorder = SpanRecorder()
            patch_layers(recorder, SETUP_LAYERS)
            try:
                module.setup(ctx)
            finally:
                recorder.restore()
            setup_self, _ = recorder.snapshot()
            recorder.reset()
            out.put("trace.build_ms", setup_self.get("trace", 0.0) * 1e3, "ms")
            out.put("perf.compiled.compile_ms", setup_self.get("perf.compiled", 0.0) * 1e3, "ms")
            module.traced(ctx, out, recorder)
            prefix, suffix = "cli.import.", "_ms"
            import_profile(out, [
                name[len(prefix):-len(suffix)] for name in _declared("per_layer")
                if name.startswith(prefix) and name.endswith(suffix)
            ])
        else:
            module.setup(ctx)
            setup_samples = module.setup_samples(ctx)
            extra["setup samples (s)"] = " ".join(f"{s:.4f}" for s in setup_samples)
            module.run(ctx, out)
    finally:
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            teardown(ctx)
    facts = fingerprint.finish(ctx.state.get("late_ms_max", 0.0))
    if trace:
        for name in ("gen.late_ms_max", "host.steal_ms", "host.calibration_ms"):
            out.put(name, facts[name], "ms")
        _check_names(out, _declared("per_layer"), fill=True)
    else:
        out.put("setup_s", median(setup_samples), "s")
        out.put("success_ratio", (out.attempted - out.failed) / max(out.attempted, 1), "ratio")
        _check_names(out, _declared("end_to_end"), fill=False)
    emit(out, facts, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expected",
        type=Path,
        default=BENCH_DIR / "expected",
        help="directory of recorded expected outputs (default perfbench/expected)",
    )
    parser.add_argument("--setup-probe", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        # A fresh interpreter doing one workload's setup, timed by the parent.
        _module(args.setup_probe).setup(
            Context(args.setup_probe, args.seed, args.seconds, args.expected)
        )
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    ctx = Context(args.workload, args.seed, args.seconds, args.expected.resolve())
    # A terminated run still unwinds, so teardown stops the server it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    try:
        measure(ctx, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"# wall {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
