"""The detailed (cycle-approximate) simulator.

Drives every segment, instruction by instruction, through the branch
predictor, cache hierarchy, ring, optional coherence protocol, and DRAM
of :func:`repro.sim.system.build_machine`. Full Table III traces reach
millions of instructions, so callers normally pass ``scale`` to shrink the
compute phases (communication sizes are preserved — see
:meth:`repro.trace.KernelTrace.scaled`); ablation C cross-checks this
model against the fast simulator.

:class:`DetailedSimulator` is the single-point case of the detailed
engine: each run builds one machine and hands it to the engine's one
phase walk (:meth:`repro.perf.sweep.PhaseWalker._walk`) with N=1, the
same walk :class:`~repro.perf.sweep.SweepSimulator` runs over a batch of
design points.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.addrspace.base import AddressSpace, make_address_space
from repro.config.comm import CommParams
from repro.config.presets import CaseStudy
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.comm.base import CommChannel, make_channel
from repro.mem.cache.replacement import ReplacementPolicy
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.perf.compiled import SegmentCompileCache
from repro.perf.sweep import PhaseWalker

# Unused here (the phase walk lives in repro.perf.sweep), but
# perfbench/layers.py looks this module-level name up to patch it.
from repro.sim.engine import run_parallel_interleaved  # noqa: F401
from repro.sim.mmu import TranslationFront
from repro.sim.results import SimulationResult
from repro.sim.system import Machine, build_machine
from repro.taxonomy import AddressSpaceKind, CoherenceKind, ProcessingUnit
from repro.trace.stream import KernelTrace

__all__ = ["DetailedSimulator"]


class DetailedSimulator(PhaseWalker):
    """Instruction-by-instruction trace simulation on the Table II machine.

    The machine knobs are :class:`~repro.perf.sweep.PhaseWalker`'s.
    """

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        comm_params: Optional[CommParams] = None,
        l3_policy: Optional[ReplacementPolicy] = None,
        interleave_parallel: bool = True,
        l1_prefetch: bool = False,
        gpu_mode: str = "heuristic",
        tracer: Tracer = NULL_TRACER,
        compiled: bool = True,
        interleave_quantum: int = 1,
        compile_cache: Optional[SegmentCompileCache] = None,
    ) -> None:
        super().__init__(
            system=system,
            comm_params=comm_params,
            l3_policy=l3_policy,
            interleave_parallel=interleave_parallel,
            l1_prefetch=l1_prefetch,
            gpu_mode=gpu_mode,
            interleave_quantum=interleave_quantum,
            compile_cache=compile_cache,
        )
        #: Span tracer (disabled by default; near-zero overhead when off).
        self.tracer = tracer
        #: Execute segments through the compiled hot path
        #: (:mod:`repro.perf.compiled`). Bit-identical to the legacy
        #: generator path; ``False`` forces the legacy expansion (used by
        #: the parity suite and the perf harness baseline).
        self.compiled = compiled
        self.last_machine: Optional[Machine] = None
        self.last_mmus: "Optional[Dict[ProcessingUnit, TranslationFront]]" = None

    def run(
        self,
        trace: KernelTrace,
        case: Optional[CaseStudy] = None,
        channel: Optional[CommChannel] = None,
        scale: float = 1.0,
        system_name: Optional[str] = None,
        address_space: "AddressSpaceKind | AddressSpace | None" = None,
        coherence: "str | CoherenceKind | None" = None,
    ) -> SimulationResult:
        """Simulate ``trace`` (optionally scaled down) in detail.

        A fresh machine is built per run (caches start cold, as in the
        paper's per-benchmark simulations); it remains inspectable on
        ``self.last_machine`` afterwards.

        With ``address_space`` set (a kind or a prebuilt model), every
        memory access translates through a per-PU TLB and page table: the
        trace is first staged into regions each PU may legally reach (see
        :func:`repro.sim.mmu.stage_trace`), TLB misses pay page walks,
        first touches pay faults, and reachability violations raise.

        ``coherence`` overrides the protocol variant over the shared
        window (``"none" | "snoop" | "directory"`` or a
        :class:`~repro.taxonomy.CoherenceKind`); when omitted it derives
        from the case study's coherence kind, which keeps the historical
        behaviour (only hardware kinds build a protocol).
        """
        if case is None and channel is None:
            raise SimulationError("provide a case study or a channel")
        if channel is None:
            channel = make_channel(
                case.comm,
                params=self.comm_params,
                system=self.system,
                async_overlap=case.async_overlap,
            )
        name = system_name or (case.name if case else str(channel.mechanism))
        if scale != 1.0:
            trace = trace.scaled(scale)

        space: Optional[AddressSpace] = None
        if address_space is not None:
            space = (
                address_space
                if isinstance(address_space, AddressSpace)
                else make_address_space(address_space, self.system)
            )

        if coherence is None and case is not None:
            coherence = case.coherence
        machine = build_machine(
            self.system,
            l3_policy=self.l3_policy,
            coherence=coherence,
            l1_prefetch=self.l1_prefetch,
            gpu_mode=self.gpu_mode,
        )
        self.last_machine = machine
        self.last_mmus = None
        [result] = self._walk(
            trace,
            [machine],
            [channel],
            [name],
            None if space is None else [space],
            compiled=self.compiled,
            tracer=self.tracer,
        )
        if space is not None:
            self.last_mmus = {
                ProcessingUnit.CPU: machine.cpu_core.memory,
                ProcessingUnit.GPU: machine.gpu_core.memory,
            }
        return result
