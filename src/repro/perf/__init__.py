"""The compiled trace hot path.

Exploration replays the same six kernel traces across every design point
of the space, so the per-instruction expansion work — millions of
dataclass constructions per simulation — is pure overhead after the first
run. This package compiles each :class:`~repro.trace.phase.Segment` once
into compact parallel numpy arrays plus a batched event encoding that the
core models execute without constructing a single per-instruction object,
and memoizes the result per segment so every (system x locality x
fault-rate) design point that replays the same trace shares one
compilation.

The compiled path is bit-identical to the legacy generator path — the
parity suite in ``tests/perf`` asserts equal
:class:`~repro.sim.results.SimulationResult` timings and counters — and is
the :class:`~repro.sim.detailed.DetailedSimulator` default.

:mod:`repro.perf.sweep` holds the detailed engine's one phase walk
(:class:`~repro.perf.sweep.PhaseWalker`) over N per-point machines:
:class:`~repro.sim.detailed.DetailedSimulator` runs it with N=1 and
:class:`~repro.perf.sweep.SweepSimulator` once per group of design
points that share a machine configuration.
"""

from repro.perf.compiled import (
    EV_BRANCH,
    EV_COMPUTE_RUN,
    EV_MEMORY,
    CompiledSegment,
    SegmentCompileCache,
    SHARED_COMPILE_CACHE,
    compile_segment,
)
from repro.perf.sweep import (
    BatchedDesignPoints,
    PhaseWalker,
    SweepPoint,
    SweepSimulator,
)

__all__ = [
    "CompiledSegment",
    "SegmentCompileCache",
    "SHARED_COMPILE_CACHE",
    "compile_segment",
    "EV_COMPUTE_RUN",
    "EV_MEMORY",
    "EV_BRANCH",
    "PhaseWalker",
    "SweepPoint",
    "BatchedDesignPoints",
    "SweepSimulator",
]
