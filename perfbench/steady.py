"""Steadiness report: is every end-to-end metric steady enough for its bound?

    python3 perfbench/steady.py                       # 2 sets x 5 runs, every workload
    python3 perfbench/steady.py --runs 10 --sets 2 --workloads detailed-grid
    python3 perfbench/steady.py --trace               # per-layer counts must repeat

Runs each workload repeatedly, each run with its own seed, as two sets
(the second set's seeds follow the first's). For every end-to-end metric
it prints each set's median and IQR as a share of the median (and every
run's value), and flags

- ``SPREAD``: a set's IQR share above the metric's bound (for
  ``setup_s``, which has no spread rule, never);
- ``NOISY``: a set's IQR share above a third of the bound, the margin the
  benchmark is tuned to;
- ``DRIFT``: the second set's median differs from the first's by more
  than the bound, in either direction — two sets of runs of the same
  code that disagree that much would also let a real regression pass, or
  flag one that is not there.

With ``--trace`` it runs the traced run instead and flags every work
count (instructions, cache accesses, DRAM requests, ring messages,
distinct points, ...) that is not identical in every run. Exit status is
1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, median, quartile_spread  # noqa: E402

#: Per-layer units that are exact work counts, which must repeat exactly.
COUNT_UNITS = ("count", "bytes", "ratio", "bool")
#: Per-layer counts that depend on host timing, not on the work: under
#: ``serve-open`` identical in-flight hot requests coalesce into one memo hit.
TIMING_DEPENDENT = {"serve.queue.coalesced", "serve.queue.shed", "exec.result_cache.hits"}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=600,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            + proc.stderr.decode("utf-8", "replace")[-3000:]
        )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def report_steadiness(workload: str, sets: List[List[dict]], spec: dict) -> bool:
    flagged = False
    print(f"\n== {workload}: {len(sets)} set(s) of {len(sets[0])} runs")
    print(f"{'metric':18s} {'bound':>6s}  " + "  ".join(
        f"{'median':>12s} {'iqr%':>6s}" for _ in sets) + "  flags")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians, spreads, runs_values = [], [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            runs_values.append(values)
            medians.append(median(values))
            spreads.append(quartile_spread(values))
        flags = []
        if name != "setup_s":
            if any(s > bound for s in spreads):
                flags.append("SPREAD")
            elif any(s > bound / 3 for s in spreads):
                flags.append("NOISY")
        if len(sets) > 1 and medians[0]:
            change = (medians[1] - medians[0]) / medians[0]
            if abs(change) > bound:
                flags.append(f"DRIFT {change:+.1%}")
        flagged |= any(f != "NOISY" for f in flags)
        print(f"{name:18s} {bound:6.2f}  " + "  ".join(
            f"{m:12.5g} {s * 100:6.2f}" for m, s in zip(medians, spreads)) + "  " + " ".join(flags))
        for k, values in enumerate(runs_values):
            print(f"{'':18s} set {k + 1}: " + " ".join(f"{v:.5g}" for v in values))
    failed = sum(r["failed"] for runs in sets for r in runs)
    if failed or not all(r["correct"] for runs in sets for r in runs):
        print(f"  FAILED OPS: {failed}")
        flagged = True
    return flagged


def report_counts(workload: str, runs: List[dict], spec: dict) -> bool:
    flagged = False
    print(f"\n== {workload}: per-layer work counts over {len(runs)} traced runs")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if metric["unit"] not in COUNT_UNITS or name in TIMING_DEPENDENT:
            continue
        values = {r["metrics"][name]["value"] for r in runs}
        if len(values) > 1:
            flagged = True
            print(f"  DIFFERS {name}: {sorted(values)}")
    if not flagged:
        print("  every count repeats exactly")
    return flagged


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    flagged = False
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            sets.append([run_once(workload, s, args.seconds, args.trace) for s in seeds])
        if args.trace:
            flagged |= report_counts(workload, [r for runs in sets for r in runs], spec)
        else:
            flagged |= report_steadiness(workload, sets, spec)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
