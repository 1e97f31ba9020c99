"""End-to-end oracle of the detailed engine: one digest per simulated cell.

The grid is the six paper kernels x the five case-study systems x the
three coherence protocols, at a small detailed scale, with traces
unstaged as in Figure 5's detailed grid (the protocol variant changes
each PU's memory front-end, not which addresses are shared). Each cell's
:class:`~repro.sim.results.SimulationResult` is reduced to a SHA-256 over
its breakdown, every phase timing, the sorted counters and ``degraded``,
with floats by ``repr``, so any change in simulated behaviour, down to
the last float bit, changes the digest.

``tests/sim/test_golden_digests.py`` checks the committed digests in
``tests/sim/golden/detailed_digests.json`` through both the single-point
``DetailedSimulator.run`` and the batched ``SweepSimulator.run``. The
test never writes the file. After a deliberate change to simulated
behaviour, regenerate it explicitly and review the diff::

    PYTHONPATH=src python -m tests.sim.golden_digests --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.config.presets import CASE_STUDIES
from repro.kernels.registry import all_kernels
from repro.perf.sweep import SweepPoint, SweepSimulator
from repro.sim.detailed import DetailedSimulator
from repro.sim.results import SimulationResult

GOLDEN = Path(__file__).parent / "golden" / "detailed_digests.json"

#: Detailed scale of every cell: small enough for tier-1, large enough that
#: every kernel reaches branch mispredictions, L3 misses and both PUs.
SCALE = 0.003
PROTOCOLS = ("none", "snoop", "directory")


def result_digest(result: SimulationResult) -> str:
    """SHA-256 over every field of ``result``, floats by ``repr``."""
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


def cell_key(kernel: str, case: str, protocol: str) -> str:
    return f"{kernel}|{case}|{protocol}"


def scaled_traces():
    return [(k.name, k.trace().scaled(SCALE)) for k in all_kernels()]


def detailed_digests() -> Dict[str, str]:
    """Every cell through ``DetailedSimulator.run``, one run per cell."""
    out: Dict[str, str] = {}
    for name, trace in scaled_traces():
        for case in CASE_STUDIES.values():
            for protocol in PROTOCOLS:
                result = DetailedSimulator().run(trace, case=case, coherence=protocol)
                out[cell_key(name, case.name, protocol)] = result_digest(result)
    return out


def sweep_digests() -> Dict[str, str]:
    """Every cell through ``SweepSimulator.run``, one batch per kernel."""
    out: Dict[str, str] = {}
    for name, trace in scaled_traces():
        cells = [
            (case, protocol)
            for case in CASE_STUDIES.values()
            for protocol in PROTOCOLS
        ]
        points: List[SweepPoint] = [
            SweepPoint(case=case, coherence=protocol) for case, protocol in cells
        ]
        for (case, protocol), result in zip(cells, SweepSimulator().run(trace, points)):
            out[cell_key(name, case.name, protocol)] = result_digest(result)
    return out


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="overwrite the committed golden with the current engine's digests",
    )
    args = parser.parse_args()
    digests = detailed_digests()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
        return
    golden = load_golden()
    changed = sorted(k for k in digests if golden.get(k) != digests[k])
    print(f"{len(digests) - len(changed)}/{len(digests)} cells match the golden")
    for key in changed:
        print(f"  changed: {key}")


if __name__ == "__main__":
    main()
