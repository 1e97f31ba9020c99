"""The detailed engine's one phase walk, and its design-point axis.

Ranking and figure sweeps replay the same six kernel traces across dozens
of design points, so the detailed engine walks a trace's phases once for
N per-point (machine, channel) pairs. :meth:`PhaseWalker._walk` is that
walk, the only one in the package: sequential and serial parallel phases
run the whole-segment compiled core loops
(:func:`repro.sim.cpu.core.run_compiled_batch`,
:func:`repro.sim.gpu.core.run_compiled_batch`), which decode each event
record once for all N machines; interleaved parallel phases step each
point's two cores in timestamp order through
:func:`~repro.sim.engine.run_parallel_interleaved`.

- :class:`PhaseWalker` — the engine settings shared by both simulators,
  and the walk;
- :class:`~repro.sim.detailed.DetailedSimulator` — the N=1 case, with a
  span tracer, an explicit channel or prebuilt address space, and the
  legacy ``Instruction`` path (``compiled=False``) kept as the parity
  suite's reference;
- :class:`SweepPoint` — one design point's simulation parameters (the
  pure-data subset of a :class:`~repro.exec.job.SimJob`);
- :class:`BatchedDesignPoints` — a batch of points with the
  timing-equivalence dedup (points differing only in display label share
  one simulation, mirroring :class:`~repro.exec.cache.ResultCache`
  relabel-on-hit) and the execution grouping (points that can share one
  phase walk);
- :class:`SweepSimulator` — evaluates one trace against every point of a
  batch, one walk per execution group.

Bit-identity contract: per point the walk performs the same operations in
the same order whatever N is, so a point's
:class:`~repro.sim.results.SimulationResult` does not depend on the batch
it is walked in. ``tests/sim/test_golden_digests.py`` pins the results of
both simulators against committed digests, and ``tests/perf`` pins the
compiled path against the legacy ``Instruction`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addrspace.base import AddressSpace, make_address_space
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.comm.base import CommChannel, make_channel
from repro.errors import SimulationError
from repro.mem.cache.replacement import ReplacementPolicy
from repro.mem.coherence.api import resolve_protocol_kind
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.perf.compiled import SHARED_COMPILE_CACHE, SegmentCompileCache
from repro.sim.cpu.core import run_compiled_batch as cpu_run_compiled_batch
from repro.sim.engine import run_parallel_interleaved
from repro.sim.gpu.core import run_compiled_batch as gpu_run_compiled_batch
from repro.sim.mmu import TranslationFront, stage_trace
from repro.sim.results import PhaseTiming, SimulationResult, TimeBreakdown
from repro.sim.system import Machine, build_machine
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    CommMechanism,
    ProcessingUnit,
)
from repro.trace.phase import CommPhase, Direction, ParallelPhase, SequentialPhase
from repro.trace.stream import KernelTrace

__all__ = [
    "PhaseWalker",
    "SweepPoint",
    "BatchedDesignPoints",
    "SweepSimulator",
]


class PhaseWalker:
    """The detailed engine: machine settings plus the one N-point phase walk.

    :class:`~repro.sim.detailed.DetailedSimulator` walks one point per
    run; :class:`SweepSimulator` walks one execution group of points at a
    time. Both build their machines with these settings and hand them to
    :meth:`_walk`.
    """

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
        l3_policy: Optional[ReplacementPolicy] = None,
        interleave_parallel: bool = True,
        l1_prefetch: bool = False,
        gpu_mode: str = "heuristic",
        interleave_quantum: int = 1,
        compile_cache: Optional[SegmentCompileCache] = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.comm_params = comm_params or CommParams()
        self.l3_policy = l3_policy
        #: Whether parallel phases run the two cores in timestamp order
        #: (contention-aware) or back-to-back (no cross-PU contention).
        self.interleave_parallel = interleave_parallel
        #: Attach next-line prefetchers to both L1 data caches.
        self.l1_prefetch = l1_prefetch
        #: GPU scheduler: "heuristic" (warp-divided stalls) or "warp" (a
        #: real greedy warp scheduler).
        self.gpu_mode = gpu_mode
        #: Interleave granularity for parallel phases; 1 is exact, larger
        #: values are a documented approximation (see
        #: :func:`repro.sim.engine.run_parallel_interleaved`).
        if interleave_quantum < 1:
            raise SimulationError(
                f"interleave quantum must be >= 1, got {interleave_quantum}"
            )
        self.interleave_quantum = interleave_quantum
        #: Segment-compilation memo; defaults to the process-wide cache so
        #: design points sharing a trace compile each segment once. An
        #: empty private cache is falsy (it has ``__len__``), hence the
        #: explicit ``is None``.
        self.compile_cache = (
            SHARED_COMPILE_CACHE if compile_cache is None else compile_cache
        )

    def _walk(
        self,
        trace: KernelTrace,
        machines: Sequence[Machine],
        channels: Sequence[CommChannel],
        labels: Sequence[str],
        spaces: Optional[Sequence[AddressSpace]] = None,
        compiled: bool = True,
        tracer: Tracer = NULL_TRACER,
    ) -> List[SimulationResult]:
        """Walk ``trace``'s phases once for N points; one result per point.

        Point ``i`` runs on ``machines[i]`` (all built from one
        configuration, so every point sees the same event stream),
        communicates over ``channels[i]`` and is labelled ``labels[i]``.
        With ``spaces`` set, the trace is staged into every point's own
        address space (see :func:`repro.sim.mmu.stage_trace`; staging is
        deterministic, so the first staging is the shared stream) and each
        point's cores translate through per-PU TLBs over that space.

        ``compiled=False`` expands each segment into legacy
        :class:`~repro.trace.instruction.Instruction` objects instead of
        running the compiled event stream.
        """
        n = len(machines)
        staged = trace
        mmus: Optional[List[Dict[ProcessingUnit, TranslationFront]]] = None
        if spaces is not None:
            staged = stage_trace(trace, spaces[0])
            for space in spaces[1:]:
                stage_trace(trace, space)
            mmus = []
            for machine, space in zip(machines, spaces):
                cpu_mmu = TranslationFront(
                    ProcessingUnit.CPU, space, machine.cpu_core.memory
                )
                gpu_mmu = TranslationFront(
                    ProcessingUnit.GPU, space, machine.gpu_core.memory
                )
                machine.cpu_core.memory = cpu_mmu
                machine.gpu_core.memory = gpu_mmu
                mmus.append({ProcessingUnit.CPU: cpu_mmu, ProcessingUnit.GPU: gpu_mmu})

        cpu_cores = [machine.cpu_core for machine in machines]
        gpu_cores = [machine.gpu_core for machine in machines]
        cpu_to_seconds = [m.config.cpu.frequency.cycles_to_seconds for m in machines]
        gpu_to_seconds = [m.config.gpu.frequency.cycles_to_seconds for m in machines]
        compile_get = self.compile_cache.get
        quantum = self.interleave_quantum

        sequential = [0.0] * n
        parallel = [0.0] * n
        communication = [0.0] * n
        now = [0.0] * n
        last_parallel_seconds = [0.0] * n
        phase_timings: List[List[PhaseTiming]] = [[] for _ in range(n)]
        # H2D copies deferred until the next parallel phase: an async
        # channel overlaps a copy with the phase that *follows* it.
        pending_h2d: List[CommPhase] = []

        # Hoisted tracing state: with the NULL tracer the per-phase cost is
        # a single falsy check — no track label, no timestamp math, no
        # sample dict allocations.
        tracing = tracer.enabled
        tracks = [f"{staged.name} @ {label}" for label in labels] if tracing else []

        def sample_memory(i: int) -> None:
            """Emit point ``i``'s memory-hierarchy 'C' counter samples."""
            machine = machines[i]
            ts = now[i] * 1e6
            tracer.counter(
                tracks[i], "l3", "l3", ts,
                {"hits": machine.l3.hits, "misses": machine.l3.misses},
            )
            tracer.counter(tracks[i], "ring", "ring", ts, {"messages": machine.ring.messages})
            tracer.counter(
                tracks[i], "dram", "dram", ts,
                {"requests": machine.dram.stats().get("requests", 0.0)},
            )

        def communicate(i: int, comm: CommPhase, window: float) -> None:
            result = channels[i].transfer(comm, overlap_window=window)
            if tracing:
                tracer.complete(
                    tracks[i],
                    "comm-link",
                    comm.label,
                    now[i] * 1e6,
                    result.exposed * 1e6,
                    args={"overlapped_us": result.overlapped * 1e6},
                )
            communication[i] += result.exposed
            now[i] += result.exposed
            phase_timings[i].append(
                PhaseTiming(
                    label=comm.label,
                    kind="communication",
                    seconds=result.exposed,
                    overlapped_seconds=result.overlapped,
                )
            )

        def run_cores(batch_loop, cores, segment) -> List[int]:
            """Each point's cycles for ``segment``, started at its ``now``."""
            if compiled:
                return batch_loop(cores, compile_get(segment), now)
            return [
                core.run_segment(segment.instructions(), start_seconds=now[i])
                for i, core in enumerate(cores)
            ]

        for phase in staged.phases:
            if isinstance(phase, SequentialPhase):
                cycles = run_cores(cpu_run_compiled_batch, cpu_cores, phase.segment)
                for i in range(n):
                    seconds = cpu_to_seconds[i](cycles[i])
                    if tracing:
                        tracer.complete(
                            tracks[i], "cpu-core", phase.label, now[i] * 1e6, seconds * 1e6
                        )
                    sequential[i] += seconds
                    now[i] += seconds
                    if tracing:
                        sample_memory(i)
                    phase_timings[i].append(
                        PhaseTiming(
                            label=phase.label,
                            kind="sequential",
                            seconds=seconds,
                            cpu_seconds=seconds,
                        )
                    )
            elif isinstance(phase, ParallelPhase):
                if self.interleave_parallel:
                    cpu_side = compile_get(phase.cpu) if compiled else phase.cpu
                    gpu_side = compile_get(phase.gpu) if compiled else phase.gpu
                    outcomes = [
                        run_parallel_interleaved(
                            cpu_cores[i],
                            gpu_cores[i],
                            cpu_side,
                            gpu_side,
                            start_seconds=now[i],
                            quantum=quantum,
                        )
                        for i in range(n)
                    ]
                    cpu_seconds = [outcome.cpu_seconds for outcome in outcomes]
                    gpu_seconds = [outcome.gpu_seconds for outcome in outcomes]
                else:
                    cpu_cycles = run_cores(cpu_run_compiled_batch, cpu_cores, phase.cpu)
                    gpu_cycles = run_cores(gpu_run_compiled_batch, gpu_cores, phase.gpu)
                    cpu_seconds = [cpu_to_seconds[i](c) for i, c in enumerate(cpu_cycles)]
                    gpu_seconds = [gpu_to_seconds[i](c) for i, c in enumerate(gpu_cycles)]
                for i in range(n):
                    seconds = max(cpu_seconds[i], gpu_seconds[i])
                    # Any deferred H2D copies overlapped with this phase.
                    for comm in pending_h2d:
                        communicate(i, comm, seconds)
                    if tracing:
                        start = now[i] * 1e6
                        tracer.complete(
                            tracks[i], "cpu-core", phase.label, start, cpu_seconds[i] * 1e6
                        )
                        tracer.complete(
                            tracks[i], "gpu-core", phase.label, start, gpu_seconds[i] * 1e6
                        )
                    parallel[i] += seconds
                    now[i] += seconds
                    if tracing:
                        sample_memory(i)
                    last_parallel_seconds[i] = seconds
                    phase_timings[i].append(
                        PhaseTiming(
                            label=phase.label,
                            kind="parallel",
                            seconds=seconds,
                            cpu_seconds=cpu_seconds[i],
                            gpu_seconds=gpu_seconds[i],
                        )
                    )
                pending_h2d.clear()
            elif isinstance(phase, CommPhase):
                if phase.direction is Direction.H2D:
                    pending_h2d.append(phase)
                    continue
                for i in range(n):
                    communicate(i, phase, last_parallel_seconds[i])
            else:
                raise SimulationError(f"unknown phase type {type(phase).__name__}")

        results: List[SimulationResult] = []
        for i, machine in enumerate(machines):
            for comm in pending_h2d:
                communicate(i, comm, 0.0)
            counters: Dict[str, float] = dict(channels[i].stats())
            for component, stats in machine.stats().items():
                for key, value in stats.items():
                    counters[f"{component}.{key}"] = value
            if mmus is not None:
                for pu, mmu in mmus[i].items():
                    for key, value in mmu.stats().items():
                        counters[f"mmu.{pu}.{key}"] = value
            results.append(
                SimulationResult(
                    kernel=staged.name,
                    system=labels[i],
                    breakdown=TimeBreakdown(
                        sequential=sequential[i],
                        parallel=parallel[i],
                        communication=communication[i],
                    ),
                    phases=tuple(phase_timings[i]),
                    counters=counters,
                )
            )
        return results


@dataclass(frozen=True)
class SweepPoint:
    """One design point of a batched sweep (pure data, picklable).

    Exactly one of ``case``/``mechanism`` selects the communication
    mechanism, mirroring :class:`~repro.exec.job.SimJob`. ``system`` and
    ``comm_params`` override the simulator's machine parameters for this
    point only (``None`` inherits them); ``system_name`` is the display
    label and never affects timing.
    """

    case: Optional[CaseStudy] = None
    mechanism: Optional[CommMechanism] = None
    async_overlap: bool = False
    address_space: Optional[AddressSpaceKind] = None
    system_name: Optional[str] = None
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None
    #: Coherence-protocol override (``"none" | "snoop" | "directory"`` or a
    #: :class:`~repro.taxonomy.CoherenceKind`); ``None`` derives from the
    #: case study, matching :meth:`repro.sim.detailed.DetailedSimulator.run`.
    coherence: "str | CoherenceKind | None" = None

    def __post_init__(self) -> None:
        selectors = sum(x is not None for x in (self.case, self.mechanism))
        if selectors != 1:
            raise SimulationError(
                f"a SweepPoint needs exactly one of case/mechanism, got {selectors}"
            )

    @property
    def protocol_kind(self) -> str:
        """The protocol variant this point's machine is built with."""
        if self.coherence is not None:
            return resolve_protocol_kind(self.coherence)
        if self.case is not None:
            return self.case.coherence.protocol
        return "none"

    def timing_key(self) -> Tuple:
        """Everything that can affect this point's timing — the dedup key.

        Excludes ``system_name``, exactly like
        :meth:`repro.exec.job.SimJob.cache_key`: two points equal up to the
        label share one simulation and the result is re-labeled on scatter.
        The coherence override enters as its *resolved* protocol kind, so
        spelling the case's own kind explicitly still dedups.
        """
        return (
            self.case,
            self.mechanism,
            self.async_overlap,
            self.address_space,
            self.system,
            self.comm_params,
            self.protocol_kind,
        )

    def label(self) -> str:
        """The result's ``system`` field, matching ``DetailedSimulator.run``."""
        if self.system_name:
            return self.system_name
        if self.case is not None:
            return self.case.name
        return str(self.mechanism)


class BatchedDesignPoints:
    """A batch of :class:`SweepPoint`\\ s prepared for one-pass evaluation.

    Computes the timing-equivalence partition (:attr:`distinct`
    representatives plus the :attr:`inverse` map) and groups the
    representatives into execution groups that can share a single phase
    walk: equal machine parameters, equal address-space staging, equal
    coherence — so the per-point machines see identical event streams and
    only channels and cache contents differ.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
    ) -> None:
        if not points:
            raise SimulationError("a batch needs at least one design point")
        self.points: Tuple[SweepPoint, ...] = tuple(points)
        self.default_system = system or SystemConfig()
        self.default_comm_params = comm_params or CommParams()

        #: Indices (into ``points``) of the timing-distinct representatives,
        #: in first-appearance order; ``inverse[i]`` is the position in
        #: ``distinct`` that point ``i`` shares a simulation with.
        self.distinct: List[int] = []
        self.inverse: List[int] = []
        seen: Dict[Tuple, int] = {}
        for index, point in enumerate(self.points):
            key = point.timing_key()
            rep = seen.get(key)
            if rep is None:
                rep = len(self.distinct)
                seen[key] = rep
                self.distinct.append(index)
            self.inverse.append(rep)

    def __len__(self) -> int:
        return len(self.points)

    def resolved(self, point: SweepPoint) -> Tuple[SystemConfig, CommParams]:
        """The (system, comm params) this point actually simulates under."""
        return (
            point.system or self.default_system,
            point.comm_params or self.default_comm_params,
        )

    def groups(self) -> List[List[int]]:
        """Execution groups over the distinct representatives.

        Each group is a list of positions into :attr:`distinct`; its points
        share machine parameters, address-space kind, and coherence, so one
        phase walk (with batched core loops) evaluates them all. Points in
        different groups differ in the staged trace or the machine itself
        and walk separately.
        """
        grouped: Dict[Tuple, List[int]] = {}
        for position, index in enumerate(self.distinct):
            point = self.points[index]
            system, params = self.resolved(point)
            key = (system, point.address_space, point.protocol_kind)
            grouped.setdefault(key, []).append(position)
        return list(grouped.values())


class SweepSimulator(PhaseWalker):
    """Evaluates one trace against a batch of design points in shared walks.

    Construction knobs are :class:`PhaseWalker`'s, the same as
    :class:`~repro.sim.detailed.DetailedSimulator`'s; the compiled hot
    path is always on — batching *is* the compiled event encoding applied
    across a point axis.
    """

    def run(
        self,
        trace: KernelTrace,
        points: "Sequence[SweepPoint] | BatchedDesignPoints",
        scale: float = 1.0,
    ) -> List[SimulationResult]:
        """Simulate ``trace`` for every point; results in point order.

        Each timing-distinct point is simulated exactly once; duplicates
        receive the shared result re-labeled to their own ``system_name``
        (determinism makes the shared result bit-identical to a dedicated
        run, the same argument :class:`~repro.exec.cache.ResultCache`
        relies on).
        """
        batch = (
            points
            if isinstance(points, BatchedDesignPoints)
            else BatchedDesignPoints(points, self.system, self.comm_params)
        )
        if scale != 1.0:
            trace = trace.scaled(scale)
        distinct_results: List[Optional[SimulationResult]] = [None] * len(
            batch.distinct
        )
        for group in batch.groups():
            for position, result in zip(group, self._run_group(trace, batch, group)):
                distinct_results[position] = result
        results: List[SimulationResult] = []
        for index, point in enumerate(batch.points):
            result = distinct_results[batch.inverse[index]]
            assert result is not None
            name = point.label()
            if result.system != name:
                result = replace(result, system=name)
            results.append(result)
        return results

    def _run_group(
        self,
        trace: KernelTrace,
        batch: BatchedDesignPoints,
        group: Sequence[int],
    ) -> List[SimulationResult]:
        """One shared phase walk over the group's per-point machines."""
        points = [batch.points[batch.distinct[g]] for g in group]
        system, _ = batch.resolved(points[0])
        channels = []
        for point in points:
            _, params = batch.resolved(point)
            if point.case is not None:
                mechanism, overlap = point.case.comm, point.case.async_overlap
            else:
                mechanism, overlap = point.mechanism, point.async_overlap
            channels.append(
                make_channel(mechanism, params=params, system=system, async_overlap=overlap)
            )
        spaces: Optional[List[AddressSpace]] = None
        if points[0].address_space is not None:
            # One space per point: staging allocates in the point's own
            # page tables, which its MMUs translate against.
            spaces = [make_address_space(points[0].address_space, system) for _ in points]
        machines = [
            build_machine(
                system,
                l3_policy=self.l3_policy,
                coherence=points[0].protocol_kind,
                l1_prefetch=self.l1_prefetch,
                gpu_mode=self.gpu_mode,
            )
            for _ in points
        ]
        return self._walk(trace, machines, channels, [p.label() for p in points], spaces)
