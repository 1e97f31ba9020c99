"""Record the expected outputs the benchmark checks every op against.

    python3 perfbench/record.py

Writes ``perfbench/expected/``:

- ``grid.json``: the ``SimulationResult`` digest of each of the 30
  detailed Figure-5 cells (``detailed-grid``);
- ``sweep.json``: the digest of each point's result in the reduction
  rank-style sweep (``sweep-batch``);
- ``rank.txt``: ``repro-explore rank`` standard output (``paper-cli``);
- ``cli.json``: the CPU+GPU instructions of the distinct simulations each
  ``paper-cli`` command prices, the work behind its ``sim_minstr_per_s``.

Run it only at a commit whose outputs are known good: everything later
is compared against these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, Context, result_digest, run_child, use_src  # noqa: E402

OUT = BENCH_DIR / "expected"


def _write(name: str, payload) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def record_grid() -> None:
    import wl_grid

    ctx = Context("detailed-grid", 0, 0.0, OUT)
    wl_grid.setup(ctx)
    explorer = ctx.state["explorer"]
    cells = {}
    for k, c in ctx.state["cells"]:
        result = explorer.run_case_studies_detailed(kernels=[k], cases=[c])[k.name][c.name]
        cells[wl_grid.cell_name(k.name, c.name)] = result_digest(result)
    _write("grid.json", {"scale": wl_grid.SCALE, "cells": cells})


def record_sweep() -> None:
    import wl_sweep
    from repro.perf.sweep import SweepSimulator

    ctx = Context("sweep-batch", 0, 0.0, OUT)
    wl_sweep.setup(ctx)
    batch = ctx.state["batch"]
    results = SweepSimulator(system=ctx.state["system"], comm_params=ctx.state["params"]).run(
        ctx.state["trace"], batch
    )
    points = {p.label(): result_digest(r) for p, r in zip(batch.points, results)}
    if len(points) != len(batch.points):
        raise SystemExit("sweep point labels are not unique")
    _write(
        "sweep.json",
        {"kernel": wl_sweep.KERNEL, "scale": wl_sweep.SCALE, "stride": wl_sweep.STRIDE,
         "points": points},
    )


#: Runs ``repro.cli`` in-process with ``FastSimulator.run`` counting the
#: instructions of every trace it prices; prints the total last.
_COUNT_PRICED = """
import contextlib, io, sys
from repro import cli
from repro.sim.fast import FastSimulator
original = FastSimulator.run
priced = [0]
def counting(self, trace, *args, **kwargs):
    priced[0] += trace.cpu_instructions + trace.gpu_instructions + trace.serial_instructions
    return original(self, trace, *args, **kwargs)
FastSimulator.run = counting
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["-q", *sys.argv[1:]])
print(priced[0])
"""


def record_cli() -> None:
    import wl_cli

    proc = run_child([sys.executable, "-m", "repro.cli", "rank"])
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.decode())
    _write("rank.txt", proc.stdout)

    instructions = {}
    for argv, _, _ in wl_cli.COMMANDS:
        # A fresh interpreter per command, so no memo carries over.
        proc = run_child([sys.executable, "-c", _COUNT_PRICED, *argv])
        if proc.returncode != 0:
            raise SystemExit(proc.stderr.decode())
        instructions[" ".join(argv)] = int(proc.stdout.split()[-1])
    _write("cli.json", {"instructions": instructions})


def main() -> int:
    use_src()
    record_grid()
    record_sweep()
    record_cli()
    return 0


if __name__ == "__main__":
    sys.exit(main())
