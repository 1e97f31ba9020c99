"""In-order SIMD GPU core timing model.

A Fermi-like streaming multiprocessor reduced to its timing essentials:

- one instruction per cycle, in order;
- no branch predictor — the core stalls on every branch (Table II:
  "N/A (stall on branch)");
- memory operations first check the 16 KB software-managed cache; demand
  accesses go through the L1 and on to the shared hierarchy, with miss
  latency divided by the warp count — multithreading is the GPU's latency
  tolerance mechanism.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.config.system import GpuConfig
from repro.errors import SimulationError
from repro.mem.cache.cache import Cache
from repro.mem.level import MemoryLevel
from repro.mem.request import MemRequest
from repro.perf.compiled import EV_COMPUTE_RUN, EV_MEMORY, CompiledSegment
from repro.sim.gpu.smem import Scratchpad
from repro.taxonomy import ProcessingUnit

__all__ = ["GpuCore", "run_compiled_batch"]


class GpuCore:
    """One in-order SIMD core with warp-level latency hiding.

    Two scheduling modes:

    - ``"heuristic"`` (default): a single instruction stream whose memory
      stalls are divided by the warp count — cheap and adequate for the
      streaming kernels;
    - ``"warp"``: an actual greedy warp scheduler — ``warps`` contexts pull
      instructions from the stream, a stalled warp parks until its memory
      request returns, and the issue slot goes to the earliest-ready warp.
      Latency hiding *emerges* instead of being assumed; see
      ``tests/sim/test_warp_mode.py`` for the cross-check between modes.
    """

    def __init__(
        self,
        config: GpuConfig,
        memory: MemoryLevel,
        latency_hiding_warps: Optional[int] = None,
        mode: str = "heuristic",
    ) -> None:
        if mode not in ("heuristic", "warp"):
            raise SimulationError(f"unknown GPU scheduling mode {mode!r}")
        self.config = config
        self.memory = memory
        self.mode = mode
        self.scratchpad = Scratchpad(config.smem_bytes, config.smem_latency)
        if latency_hiding_warps is None:
            latency_hiding_warps = config.warps_per_core
        if latency_hiding_warps < 1:
            raise SimulationError("need at least one warp for latency hiding")
        self.warps = latency_hiding_warps
        self.instructions_retired = 0
        self.memory_stall_cycles = 0.0
        self.branch_stall_cycles = 0
        self.scratchpad_hits = 0

    def run_stepwise(
        self,
        instructions: Iterable,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> Iterator[float]:
        """Execute instructions one at a time, yielding cumulative cycles.

        See :meth:`repro.sim.cpu.core.CpuCore.run_stepwise` for the
        stepping protocol used by the interleaving engine. A
        :class:`~repro.perf.compiled.CompiledSegment` may be passed in
        place of the instruction iterable.
        """
        if isinstance(instructions, CompiledSegment):
            yield from self.step_compiled(instructions, start_seconds, explicit_addrs)
            return
        if self.mode == "warp":
            yield from self._run_stepwise_warp(
                instructions, start_seconds, explicit_addrs
            )
            return
        freq = self.config.frequency
        branch_stall = self.config.branch_stall_cycles if self.config.stall_on_branch else 0
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)

        cycles = 0.0
        count = 0
        for inst in instructions:
            count += 1
            cycles += 1
            opcode = inst.opcode
            if opcode.is_memory:
                smem = self.scratchpad.access(inst.addr)
                if smem is not None:
                    self.scratchpad_hits += 1
                    cycles += max(smem - 1, 0)
                    yield cycles
                    continue
                explicit = bool(explicit_addrs and explicit_addrs(inst.addr))
                request = MemRequest(
                    addr=inst.addr,
                    size=inst.size,
                    is_write=opcode.is_store,
                    pu=ProcessingUnit.GPU,
                    explicit=explicit,
                    issue_time=start_seconds + freq.cycles_to_seconds(int(cycles)),
                )
                result = self.memory.access(request)
                if result.latency > hit_latency:
                    stall = (result.latency - hit_latency) / self.warps
                    stall_cycles = stall * freq.hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            elif opcode.value == "branch":
                cycles += branch_stall
                self.branch_stall_cycles += branch_stall
            yield cycles
        self.instructions_retired += count
        yield cycles

    def _run_stepwise_warp(
        self,
        instructions: Iterable,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> Iterator[float]:
        """Greedy warp scheduling: the issue slot goes to the earliest-ready
        warp; memory latency parks the issuing warp, not the core."""
        freq = self.config.frequency
        branch_stall = self.config.branch_stall_cycles if self.config.stall_on_branch else 0
        hit_latency_cycles = float(self.config.l1d.latency)

        ready = [0.0] * self.warps
        cycle = 0.0
        count = 0
        stream = iter(instructions)
        for inst in stream:
            count += 1
            # Earliest-ready warp takes the next instruction; the core
            # issues at most one instruction per cycle.
            warp = min(range(self.warps), key=ready.__getitem__)
            issue_at = max(cycle, ready[warp]) + 1
            if issue_at > cycle + 1:
                # All other warps were parked too: exposed stall.
                self.memory_stall_cycles += issue_at - (cycle + 1)
            cycle = issue_at
            opcode = inst.opcode
            if opcode.is_memory:
                smem = self.scratchpad.access(inst.addr)
                if smem is not None:
                    self.scratchpad_hits += 1
                    ready[warp] = cycle + max(smem - 1, 0)
                    yield cycle
                    continue
                explicit = bool(explicit_addrs and explicit_addrs(inst.addr))
                request = MemRequest(
                    addr=inst.addr,
                    size=inst.size,
                    is_write=opcode.is_store,
                    pu=ProcessingUnit.GPU,
                    explicit=explicit,
                    issue_time=start_seconds + freq.cycles_to_seconds(int(cycle)),
                )
                result = self.memory.access(request)
                latency_cycles = result.latency * freq.hertz
                ready[warp] = cycle + max(latency_cycles - hit_latency_cycles, 0.0)
            elif opcode.value == "branch":
                ready[warp] = cycle + branch_stall
                self.branch_stall_cycles += branch_stall
            else:
                ready[warp] = cycle
            yield cycle
        # Drain: the segment finishes when the last warp's work lands.
        cycle = max([cycle] + ready)
        self.instructions_retired += count
        yield cycle

    def run_compiled(
        self,
        compiled: CompiledSegment,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> int:
        """Whole-segment fast path over a compiled segment; returns GPU cycles.

        Heuristic mode is the N=1 case of :func:`run_compiled_batch`. Warp
        mode keeps its scheduler and simply decodes the compiled stream
        (latency hiding there depends on per-instruction warp state).
        """
        if self.mode == "warp":
            cycles = 0.0
            for cycles in self._run_stepwise_warp(
                compiled.instructions(), start_seconds, explicit_addrs
            ):
                pass
            return int(cycles)
        return run_compiled_batch([self], compiled, [start_seconds], [explicit_addrs])[0]

    def step_compiled(
        self,
        compiled: CompiledSegment,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> Iterator[float]:
        """Per-instruction stepper over a compiled segment.

        Yield-for-yield identical to :meth:`run_stepwise` on the decoded
        stream; warp mode decodes into its scheduler unchanged.
        """
        if self.mode == "warp":
            yield from self._run_stepwise_warp(
                compiled.instructions(), start_seconds, explicit_addrs
            )
            return
        freq = self.config.frequency
        hertz = freq.hertz
        branch_stall = self.config.branch_stall_cycles if self.config.stall_on_branch else 0
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)
        warps = self.warps
        access_latency = self.memory.access_latency
        scratchpad_access = self.scratchpad.access
        pu = ProcessingUnit.GPU

        cycles = 0.0
        for kind, a, b, c in compiled.events:
            if kind == EV_COMPUTE_RUN:
                for _ in range(a):
                    cycles += 1.0
                    yield cycles
                continue
            cycles += 1.0
            if kind == EV_MEMORY:
                smem = scratchpad_access(a)
                if smem is not None:
                    self.scratchpad_hits += 1
                    cycles += max(smem - 1, 0)
                    yield cycles
                    continue
                explicit = bool(explicit_addrs is not None and explicit_addrs(a))
                latency = access_latency(
                    a,
                    b,
                    bool(c),
                    pu,
                    explicit,
                    False,
                    start_seconds + int(cycles) / hertz,
                )
                if latency > hit_latency:
                    stall = (latency - hit_latency) / warps
                    stall_cycles = stall * hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            else:  # EV_BRANCH
                cycles += branch_stall
                self.branch_stall_cycles += branch_stall
            yield cycles
        self.instructions_retired += compiled.length
        yield cycles

    def run_segment(
        self,
        instructions: Iterable,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> int:
        """Execute a whole stream; returns GPU cycles consumed.

        Accepts either an iterable of instructions or a
        :class:`~repro.perf.compiled.CompiledSegment` (batched fast path).
        """
        if isinstance(instructions, CompiledSegment):
            return self.run_compiled(instructions, start_seconds, explicit_addrs)
        cycles = 0.0
        for cycles in self.run_stepwise(instructions, start_seconds, explicit_addrs):
            pass
        return int(cycles)

    def push(self, base: int, size: int) -> None:
        """Explicitly place a region into the software-managed cache."""
        self.scratchpad.push(base, size)

    def stats(self) -> Dict[str, float]:
        data = {
            "instructions": self.instructions_retired,
            "memory_stall_cycles": self.memory_stall_cycles,
            "branch_stall_cycles": self.branch_stall_cycles,
            "scratchpad_hits": self.scratchpad_hits,
        }
        for key, value in self.scratchpad.stats().items():
            data[f"smem_{key}"] = value
        return data


def run_compiled_batch(
    cores: Sequence[GpuCore],
    compiled: CompiledSegment,
    start_seconds: Sequence[float],
    explicit_addrs: Optional[Sequence[Optional[object]]] = None,
) -> List[int]:
    """Run one compiled event stream through N GPU cores in a single pass.

    The one whole-segment compiled loop of the GPU model in heuristic mode
    (:meth:`GpuCore.run_compiled` is its N=1 case): event records are
    decoded once and applied to every per-point core state, with cycle
    accounting identical to the legacy loop (see
    :func:`repro.sim.cpu.core.run_compiled_batch` for the float-exactness
    rules and the shared ``(index, tag)`` cache probing). Any core in warp
    mode makes the whole batch fall back to per-core execution (warp
    latency hiding depends on per-instruction scheduler state that cannot
    share a decode pass).

    Returns each core's cycle count, in core order.
    """
    n = len(cores)
    if len(start_seconds) != n:
        raise SimulationError(
            f"need one start time per core: {n} cores, {len(start_seconds)} times"
        )
    if explicit_addrs is None:
        explicit_addrs = [None] * n
    if any(core.mode == "warp" for core in cores):
        return [
            core.run_compiled(compiled, start_seconds[i], explicit_addrs[i])
            for i, core in enumerate(cores)
        ]

    hertz = [core.config.frequency.hertz for core in cores]
    branch_stall = [
        core.config.branch_stall_cycles if core.config.stall_on_branch else 0
        for core in cores
    ]
    hit_latency = [
        core.config.frequency.cycles_to_seconds(core.config.l1d.latency)
        for core in cores
    ]
    warps = [core.warps for core in cores]
    memories = [core.memory for core in cores]
    access = [memory.access_latency for memory in memories]
    scratchpad = [core.scratchpad.access for core in cores]
    pu = ProcessingUnit.GPU

    located = None
    if all(type(memory) is Cache for memory in memories):
        geometries = {memory.geometry for memory in memories}
        if len(geometries) == 1:
            line_bytes, num_sets = geometries.pop()
            located = [memory.access_latency_located for memory in memories]

    cycles = [0.0] * n
    for kind, a, b, c in compiled.events:
        if kind == EV_COMPUTE_RUN:
            for i in range(n):
                cy = cycles[i]
                if cy.is_integer():
                    cycles[i] = cy + a
                else:
                    for _ in range(a):
                        cy += 1.0
                    cycles[i] = cy
        elif kind == EV_MEMORY:
            is_write = bool(c)
            if located is not None:
                line = a // line_bytes
                index = line % num_sets
                tag = line // num_sets
            for i in range(n):
                cy = cycles[i] + 1.0
                smem = scratchpad[i](a)
                if smem is not None:
                    cores[i].scratchpad_hits += 1
                    cy += max(smem - 1, 0)
                    cycles[i] = cy
                    continue
                marker = explicit_addrs[i]
                explicit = bool(marker is not None and marker(a))
                issue_time = start_seconds[i] + int(cy) / hertz[i]
                if located is not None:
                    latency = located[i](
                        index, tag, a, b, is_write, pu, explicit, False, issue_time
                    )
                else:
                    latency = access[i](
                        a, b, is_write, pu, explicit, False, issue_time
                    )
                hit = hit_latency[i]
                if latency > hit:
                    stall = (latency - hit) / warps[i]
                    stall_cycles = stall * hertz[i]
                    cy += stall_cycles
                    cores[i].memory_stall_cycles += stall_cycles
                cycles[i] = cy
        else:  # EV_BRANCH
            for i in range(n):
                cycles[i] += 1.0
                cycles[i] += branch_stall[i]
                cores[i].branch_stall_cycles += branch_stall[i]
    out: List[int] = []
    for i in range(n):
        cores[i].instructions_retired += compiled.length
        out.append(int(cycles[i]))
    return out
