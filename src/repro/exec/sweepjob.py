"""Batched design-point execution through the exploration runtime.

:class:`~repro.exec.job.SimJob` describes one simulator run; a
:class:`SweepBatchJob` describes N of them sharing a trace, evaluated in
one pass by the :class:`~repro.perf.sweep.SweepSimulator` (the design-point
axis of the compiled hot path). :func:`partition_jobs` converts a batch of
detailed jobs into sweep batches — one per trace — so rank-style and
figure sweeps fan out *batches of points* instead of individual jobs;
:func:`run_sweep_batch` is the module-level worker the
:class:`~repro.exec.runner.ParallelRunner` pool executes
(:func:`run_sweep_batch_stats` is the same worker instrumented with the
worker-side compile-cache deltas, for warm-pool observability).

Results are bit-identical to running each job through
:func:`~repro.exec.job.run_sim_job`: both go through the detailed
engine's one phase walk (:class:`~repro.perf.sweep.PhaseWalker`), the
timing-equivalence dedup mirrors :class:`~repro.exec.cache.ResultCache`
relabel-on-hit, and ``tests/perf/test_sweep.py`` pins both.

The second half of the module is the *sharded* full-space rank engine:
:func:`plan_shards` partitions a design-point list into timing-key-aware
shards (points that dedup to the same simulation always co-locate, so
in-shard memoization stays as effective as the global
:class:`~repro.exec.cache.ResultCache`), :class:`ShardJob` is the
picklable unit of pool work, and :func:`run_shard` evaluates one shard
entirely inside a worker — building traces from the process-global
:data:`~repro.exec.cache.SHARED_TRACE_CACHE`, simulating each distinct
timing key once, and aggregating per-point evaluations with the exact
float-operation order of :meth:`repro.core.explorer.Explorer._evaluation`
— returning a compact :class:`ShardOutcome` instead of thousands of
pickled results. The merged ranking is byte-identical to the serial path
(``tests/exec/test_shard.py`` pins it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.config.comm import CommParams
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.exec.job import SimJob, run_sim_job

if TYPE_CHECKING:  # pragma: no cover - import would cycle through repro.core
    from repro.core.design_point import DesignPoint
from repro.perf.sweep import SweepPoint, SweepSimulator
from repro.sim.results import SimulationResult
from repro.taxonomy import AddressSpaceKind, CommMechanism
from repro.trace.stream import KernelTrace

__all__ = [
    "SweepBatchJob",
    "run_sweep_batch",
    "run_sweep_batch_stats",
    "partition_jobs",
    "point_for_job",
    "timing_key",
    "plan_shards",
    "ShardJob",
    "ShardOutcome",
    "run_shard",
]


@dataclass(frozen=True)
class SweepBatchJob:
    """N design points against one trace — a picklable unit of pool work."""

    trace: KernelTrace
    points: Tuple[SweepPoint, ...]
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None


def run_sweep_batch(job: SweepBatchJob) -> List[SimulationResult]:
    """Execute one batch (the worker function run inside pool processes).

    The engine runs at its default settings (exact interleaved parallel
    phases, no L1 prefetch, heuristic GPU scheduling) — the settings of
    :func:`~repro.exec.job.run_sim_job`, which the batch must reproduce.
    """
    simulator = SweepSimulator(system=job.system, comm_params=job.comm_params)
    return simulator.run(job.trace, list(job.points))


def _compile_cache_snapshot() -> Tuple[int, int, int, int]:
    from repro.perf.compiled import SHARED_COMPILE_CACHE

    cache = SHARED_COMPILE_CACHE
    return (cache.hits, cache.misses, cache.shared_hits, cache.published)


def run_sweep_batch_stats(
    job: SweepBatchJob,
) -> Tuple[List[SimulationResult], Dict[str, int]]:
    """:func:`run_sweep_batch` plus this call's compile-cache delta.

    The delta comes off the worker's process-global
    :data:`~repro.perf.compiled.SHARED_COMPILE_CACHE` — counting only this
    batch's lookups, so a persistent worker's history does not leak in.
    The parent folds the deltas into ``exec.compile.*`` counters
    (:meth:`~repro.exec.stats.RunStats.record_compile`): with a warm-started
    pool (:func:`repro.perf.warm.attach_region`) steady-state ``misses``
    across the pool is ~0, and that is exactly what this makes observable.
    """
    before = _compile_cache_snapshot()
    results = run_sweep_batch(job)
    after = _compile_cache_snapshot()
    delta = {
        "hits": after[0] - before[0],
        "misses": after[1] - before[1],
        "shared_hits": after[2] - before[2],
        "published": after[3] - before[3],
    }
    return results, delta


def point_for_job(job: SimJob) -> Optional[SweepPoint]:
    """The :class:`SweepPoint` equivalent of ``job``, or ``None``.

    Only detailed, cacheable, fault-free jobs translate: explicit channel
    objects are stateful, fault plans perturb the channel per attempt, and
    fast-simulator jobs have no compiled hot path to batch.
    """
    if not job.detailed or job.fault_plan is not None or job.channel is not None:
        return None
    return SweepPoint(
        case=job.case,
        mechanism=job.mechanism,
        async_overlap=job.async_overlap,
        address_space=job.address_space,
        system_name=job.system_name,
        system=job.system,
        comm_params=job.comm_params,
        coherence=job.coherence,
    )


def partition_jobs(
    jobs: Sequence[SimJob],
) -> Optional[List[Tuple[SweepBatchJob, List[int]]]]:
    """Partition detailed jobs into per-trace sweep batches.

    Returns ``(batch, original_indices)`` pairs whose concatenated results,
    scattered back to ``original_indices``, reproduce the per-job result
    list exactly — or ``None`` when any job is ineligible (the caller falls
    back to the per-job path for the whole batch, keeping semantics
    uniform).
    """
    translated: List[SweepPoint] = []
    for job in jobs:
        point = point_for_job(job)
        if point is None:
            return None
        translated.append(point)
    grouped: "dict[KernelTrace, List[int]]" = {}
    for index, job in enumerate(jobs):
        grouped.setdefault(job.trace, []).append(index)
    batches: List[Tuple[SweepBatchJob, List[int]]] = []
    for trace, indices in grouped.items():
        batches.append(
            (
                SweepBatchJob(
                    trace=trace,
                    points=tuple(translated[i] for i in indices),
                ),
                indices,
            )
        )
    return batches


# -- sharded full-space rank ------------------------------------------------


def timing_key(point: DesignPoint) -> Tuple[str, str]:
    """The axes of ``point`` that can affect simulated timing.

    Rank jobs differ only in communication mechanism and address space
    (locality, coherence, and consistency are scored analytically), so two
    points sharing this key produce bit-identical per-kernel results —
    the invariant both :meth:`~repro.exec.job.SimJob.cache_key` dedup and
    in-shard memoization rely on.
    """
    return (str(point.comm), str(point.address_space))


def plan_shards(points: Sequence[DesignPoint], shards: int) -> List[List[int]]:
    """Partition point indices into ``shards`` timing-key-aware shards.

    Points with equal :func:`timing_key` always land in the same shard, so
    each distinct simulation runs in exactly one worker and in-shard dedup
    matches the global memo's effectiveness. Key groups are placed
    largest-first onto the least-loaded shard (ties broken by shard index),
    which is deterministic; each shard's indices come back sorted, and the
    returned lists are a true partition of ``range(len(points))`` — the
    Hypothesis suite pins ∪ = all indices and pairwise ∩ = ∅.

    Shards can come back empty when there are fewer key groups than
    ``shards``; callers skip empty shards rather than padding them.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    grouped: "Dict[Tuple[str, str], List[int]]" = {}
    for index, point in enumerate(points):
        grouped.setdefault(timing_key(point), []).append(index)
    plan: List[List[int]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for key, indices in sorted(
        grouped.items(), key=lambda item: (-len(item[1]), item[0])
    ):
        target = loads.index(min(loads))
        plan[target].extend(indices)
        loads[target] += len(indices)
    for bucket in plan:
        bucket.sort()
    return plan


@dataclass(frozen=True)
class ShardJob:
    """One shard of a rank sweep — a picklable unit of pool work.

    Carries the shard's points, the kernel *names* (workers rebuild traces
    from the registry through their process-global trace cache instead of
    unpickling N copies of each trace), the machine parameters, and the
    parent's precomputed Table V comm-line totals (as sorted pairs — the
    dataclass stays hashable/frozen).
    """

    points: Tuple[DesignPoint, ...]
    kernel_names: Tuple[str, ...]
    system: Optional[SystemConfig] = None
    comm_params: Optional[CommParams] = None
    comm_lines: Tuple[Tuple[AddressSpaceKind, int], ...] = ()


@dataclass(frozen=True)
class ShardOutcome:
    """What a shard sends back: evaluations, not result objects.

    ``evaluations`` holds one ``(label, mean_seconds, mean_comm_fraction,
    comm_lines_total, locality_options)`` tuple per point, in shard order.
    ``distinct`` carries the few genuinely distinct ``(cache_key, result)``
    pairs (one per timing key x kernel) so the parent can write them
    through its memo/durable store; the thousands of deduplicated results
    never cross the process boundary. ``sim_runs``/``dedup_hits`` feed the
    parent's cache counters.
    """

    evaluations: Tuple[Tuple[str, float, float, int, int], ...]
    distinct: Tuple[Tuple[Hashable, SimulationResult], ...]
    sim_runs: int = 0
    dedup_hits: int = 0


def run_shard(shard: ShardJob) -> ShardOutcome:
    """Evaluate one shard inside a worker process.

    Per point this performs exactly the serial path's arithmetic: each
    distinct timing key simulates once per kernel (``run_sim_job``, same
    job parameters the explorer's ``_point_jobs`` builds), and the
    per-point aggregation sums totals/fractions in kernel order before one
    division — so the merged ranking is bit-identical to
    :meth:`repro.core.explorer.Explorer._evaluation` over an unsharded run.
    """
    from repro.exec.cache import SHARED_TRACE_CACHE
    from repro.kernels.registry import kernel as kernel_by_name
    from repro.locality.schemes import feasible_schemes

    kernels = [kernel_by_name(name) for name in shard.kernel_names]
    traces = [SHARED_TRACE_CACHE.get(k) for k in kernels]
    comm_lines = dict(shard.comm_lines)
    memo: "Dict[Tuple[str, str], List[SimulationResult]]" = {}
    distinct: List[Tuple[Hashable, SimulationResult]] = []
    evaluations: List[Tuple[str, float, float, int, int]] = []
    sim_runs = 0
    dedup_hits = 0
    for point in shard.points:
        point.require_feasible()
        key = timing_key(point)
        results = memo.get(key)
        if results is None:
            jobs = [
                SimJob(
                    trace=trace,
                    system=shard.system,
                    comm_params=shard.comm_params,
                    mechanism=point.comm,
                    async_overlap=point.comm is CommMechanism.DMA_ASYNC,
                    address_space=point.address_space,
                    system_name=point.label,
                )
                for trace in traces
            ]
            results = [run_sim_job(job) for job in jobs]
            memo[key] = results
            sim_runs += len(results)
            for job, result in zip(jobs, results):
                cache_key = job.cache_key()
                if cache_key is not None:
                    distinct.append((cache_key, result))
        else:
            dedup_hits += len(results)
        totals = [r.total_seconds for r in results]
        comm_fracs = [r.breakdown.communication_fraction for r in results]
        evaluations.append(
            (
                point.label,
                sum(totals) / len(totals),
                sum(comm_fracs) / len(comm_fracs),
                comm_lines[point.address_space],
                len(feasible_schemes(point.address_space)),
            )
        )
    return ShardOutcome(
        evaluations=tuple(evaluations),
        distinct=tuple(distinct),
        sim_runs=sim_runs,
        dedup_hits=dedup_hits,
    )
