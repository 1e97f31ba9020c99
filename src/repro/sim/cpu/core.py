"""Out-of-order CPU core timing model.

A trace-driven approximation of a Sandy-Bridge-class core:

- up to ``issue_width`` instructions issue per cycle;
- branches run through a real gshare predictor; each misprediction costs
  the pipeline-refill penalty;
- loads/stores access the cache hierarchy; L1 hits are considered fully
  pipelined, while miss latency is divided by an MLP factor — the
  out-of-order window keeps several misses in flight, so the visible stall
  per miss is a fraction of the raw latency.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.config.system import CpuConfig
from repro.errors import SimulationError
from repro.mem.cache.cache import Cache
from repro.mem.level import MemoryLevel
from repro.mem.request import MemRequest
from repro.perf.compiled import EV_COMPUTE_RUN, EV_MEMORY, CompiledSegment
from repro.sim.cpu.branch import GsharePredictor
from repro.taxonomy import ProcessingUnit

__all__ = ["CpuCore", "run_compiled_batch"]

#: Memory-level parallelism the OoO window sustains on streaming code.
DEFAULT_MLP = 4.0


class CpuCore:
    """One out-of-order core attached to a data-cache hierarchy."""

    def __init__(
        self,
        config: CpuConfig,
        memory: MemoryLevel,
        mlp: float = DEFAULT_MLP,
    ) -> None:
        if mlp < 1.0:
            raise SimulationError("MLP factor must be >= 1")
        self.config = config
        self.memory = memory
        self.mlp = mlp
        self.predictor = GsharePredictor(config.branch_predictor)
        self.instructions_retired = 0
        self.memory_stall_cycles = 0.0
        self.branch_stall_cycles = 0

    def run_stepwise(
        self,
        instructions: Iterable,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> Iterator[float]:
        """Execute instructions one at a time, yielding cumulative cycles.

        The interleaving engine alternates between the two cores' steppers
        so that concurrent accesses reach the shared L3/DRAM in timestamp
        order (contention-aware parallel phases). The last yielded value is
        the segment's final cycle count, including the trailing partial
        issue group.

        ``explicit_addrs`` is an optional predicate ``addr -> bool`` that
        marks accesses to explicitly managed data (sets the locality bit in
        the caches).

        A :class:`~repro.perf.compiled.CompiledSegment` may be passed in
        place of the instruction iterable; it is stepped through the
        batched decoder (:meth:`step_compiled`), with identical yields.
        """
        if isinstance(instructions, CompiledSegment):
            yield from self.step_compiled(instructions, start_seconds, explicit_addrs)
            return
        freq = self.config.frequency
        issue_width = self.config.issue_width
        penalty = self.config.branch_mispredict_penalty
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)

        cycles = 0.0
        slot = 0
        count = 0
        pc = 0x400000
        for inst in instructions:
            count += 1
            pc += 4
            slot += 1
            if slot >= issue_width:
                cycles += 1
                slot = 0
            opcode = inst.opcode
            if opcode.is_memory:
                explicit = bool(explicit_addrs and explicit_addrs(inst.addr))
                request = MemRequest(
                    addr=inst.addr,
                    size=inst.size,
                    is_write=opcode.is_store,
                    pu=ProcessingUnit.CPU,
                    explicit=explicit,
                    issue_time=start_seconds + freq.cycles_to_seconds(int(cycles)),
                )
                result = self.memory.access(request)
                if result.latency > hit_latency:
                    stall = (result.latency - hit_latency) / self.mlp
                    stall_cycles = stall * freq.hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            elif opcode.value == "branch":
                if not self.predictor.predict_and_update(pc, inst.taken):
                    cycles += penalty
                    self.branch_stall_cycles += penalty
                    slot = 0
            yield cycles
        if slot:
            cycles += 1
        self.instructions_retired += count
        yield cycles

    def run_compiled(
        self,
        compiled: CompiledSegment,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> int:
        """Whole-segment fast path over a compiled segment; returns cycles.

        The N=1 case of :func:`run_compiled_batch`.
        """
        return run_compiled_batch([self], compiled, [start_seconds], [explicit_addrs])[0]

    def step_compiled(
        self,
        compiled: CompiledSegment,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> Iterator[float]:
        """Per-instruction stepper over a compiled segment.

        Yield-for-yield identical to :meth:`run_stepwise` on the decoded
        stream — the interleaving engine needs the per-instruction
        granularity — but skips Instruction decoding and hit-path request
        objects.
        """
        freq = self.config.frequency
        hertz = freq.hertz
        issue_width = self.config.issue_width
        penalty = self.config.branch_mispredict_penalty
        hit_latency = freq.cycles_to_seconds(self.config.l1d.latency)
        mlp = self.mlp
        access_latency = self.memory.access_latency
        predict_and_update = self.predictor.predict_and_update
        pu = ProcessingUnit.CPU

        cycles = 0.0
        slot = 0
        for kind, a, b, c in compiled.events:
            if kind == EV_COMPUTE_RUN:
                for _ in range(a):
                    slot += 1
                    if slot >= issue_width:
                        cycles += 1.0
                        slot = 0
                    yield cycles
                continue
            slot += 1
            if slot >= issue_width:
                cycles += 1.0
                slot = 0
            if kind == EV_MEMORY:
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
                    stall = (latency - hit_latency) / mlp
                    stall_cycles = stall * hertz
                    cycles += stall_cycles
                    self.memory_stall_cycles += stall_cycles
            else:  # EV_BRANCH
                if not predict_and_update(b, bool(a)):
                    cycles += penalty
                    self.branch_stall_cycles += penalty
                    slot = 0
            yield cycles
        if slot:
            cycles += 1
        self.instructions_retired += compiled.length
        yield cycles

    def run_segment(
        self,
        instructions: Iterable,
        start_seconds: float = 0.0,
        explicit_addrs: Optional[object] = None,
    ) -> int:
        """Execute a whole stream; returns cycles consumed.

        Accepts either an iterable of instructions (the legacy generator
        path) or a :class:`~repro.perf.compiled.CompiledSegment` (the
        batched fast path).
        """
        if isinstance(instructions, CompiledSegment):
            return self.run_compiled(instructions, start_seconds, explicit_addrs)
        cycles = 0.0
        for cycles in self.run_stepwise(instructions, start_seconds, explicit_addrs):
            pass
        return int(cycles)

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle so far (approximate)."""
        total_cycles = (
            self.instructions_retired / self.config.issue_width
            + self.memory_stall_cycles
            + self.branch_stall_cycles
        )
        return self.instructions_retired / total_cycles if total_cycles else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "instructions": self.instructions_retired,
            "memory_stall_cycles": self.memory_stall_cycles,
            "branch_stall_cycles": self.branch_stall_cycles,
            "branch_mispredictions": self.predictor.mispredictions,
        }


def run_compiled_batch(
    cores: Sequence[CpuCore],
    compiled: CompiledSegment,
    start_seconds: Sequence[float],
    explicit_addrs: Optional[Sequence[Optional[object]]] = None,
) -> List[int]:
    """Run one compiled event stream through N cores in a single pass.

    The one whole-segment compiled loop of the CPU model
    (:meth:`CpuCore.run_compiled` is its N=1 case). Each core belongs to a
    different design point's machine; the loop decodes every event record
    once and applies it to all N per-point states (cycles, issue slot,
    predictor, memory hierarchy). Per point, the arithmetic is the same
    operation sequence whatever N is, and cycle-for-cycle identical to
    draining :meth:`CpuCore.run_stepwise` on the decoded instruction
    stream (``tests/perf`` pins this), without constructing an
    :class:`~repro.trace.instruction.Instruction` or, on a cache hit, a
    :class:`~repro.mem.request.MemRequest`.

    Exactness notes: issue-group wraps are added one ``+= 1.0`` at a time
    whenever a core's cycle count carries a fractional part (float
    addition is not associative, and the legacy loop adds sequentially);
    when it is integer-valued the batched add is exact. Stalls accumulate
    onto the core attributes per miss, in stream order, exactly like the
    legacy loop.

    When every core's memory is a bare :class:`~repro.mem.cache.cache.Cache`
    with equal :attr:`~repro.mem.cache.cache.Cache.geometry`, each memory
    event's set index and tag are computed once and the per-point caches
    are probed through
    :meth:`~repro.mem.cache.cache.Cache.access_latency_located`.

    Returns each core's cycle count, in core order.
    """
    n = len(cores)
    if len(start_seconds) != n:
        raise SimulationError(
            f"need one start time per core: {n} cores, {len(start_seconds)} times"
        )
    if explicit_addrs is None:
        explicit_addrs = [None] * n

    hertz = [core.config.frequency.hertz for core in cores]
    issue_width = [core.config.issue_width for core in cores]
    penalty = [core.config.branch_mispredict_penalty for core in cores]
    hit_latency = [
        core.config.frequency.cycles_to_seconds(core.config.l1d.latency)
        for core in cores
    ]
    mlp = [core.mlp for core in cores]
    memories = [core.memory for core in cores]
    access = [memory.access_latency for memory in memories]
    predict = [core.predictor.predict_and_update for core in cores]
    pu = ProcessingUnit.CPU

    # Shared address decomposition: legal only when every point's top level
    # is a raw cache and all geometries agree (no MMU/coherence fronts).
    located = None
    if all(type(memory) is Cache for memory in memories):
        geometries = {memory.geometry for memory in memories}
        if len(geometries) == 1:
            line_bytes, num_sets = geometries.pop()
            located = [memory.access_latency_located for memory in memories]

    cycles = [0.0] * n
    slots = [0] * n
    for kind, a, b, c in compiled.events:
        if kind == EV_COMPUTE_RUN:
            for i in range(n):
                slot = slots[i] + a
                width = issue_width[i]
                wraps = slot // width
                slots[i] = slot - wraps * width
                if wraps:
                    cy = cycles[i]
                    if cy.is_integer():
                        cycles[i] = cy + wraps
                    else:
                        for _ in range(wraps):
                            cy += 1.0
                        cycles[i] = cy
        elif kind == EV_MEMORY:
            is_write = bool(c)
            if located is not None:
                line = a // line_bytes
                index = line % num_sets
                tag = line // num_sets
            for i in range(n):
                slot = slots[i] + 1
                cy = cycles[i]
                if slot >= issue_width[i]:
                    cy += 1.0
                    slot = 0
                slots[i] = slot
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
                    stall = (latency - hit) / mlp[i]
                    stall_cycles = stall * hertz[i]
                    cy += stall_cycles
                    cores[i].memory_stall_cycles += stall_cycles
                cycles[i] = cy
        else:  # EV_BRANCH
            taken = bool(a)
            for i in range(n):
                slot = slots[i] + 1
                if slot >= issue_width[i]:
                    cycles[i] += 1.0
                    slot = 0
                if not predict[i](b, taken):
                    cycles[i] += penalty[i]
                    cores[i].branch_stall_cycles += penalty[i]
                    slot = 0
                slots[i] = slot
    out: List[int] = []
    for i in range(n):
        cy = cycles[i]
        if slots[i]:
            cy += 1
        cores[i].instructions_retired += compiled.length
        out.append(int(cy))
    return out
