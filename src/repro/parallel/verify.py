"""Parallel emulator verification of search winners.

A distribution search returns the candidate MHETA *predicts* is
fastest; the honest experiment then runs the emulator on each winner to
see what it *actually* costs (benchmarks' ``search_comparison`` table,
the CLI's ``search --verify``).

Since the plan-compiled emulator, one verification round is one
*batched* :func:`~repro.sim.executor.emulate_many` pass: the whole
population shares a single compiled :class:`EmulationPlan` and walks
its coupled recurrence as one ``(B, P)`` array sweep.  ``jobs > 1``
shards the population into contiguous batches, one batched pass per
worker, so results stay independent of ``jobs``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.distribution.genblock import GenBlock
from repro.obs import Recorder, as_recorder
from repro.parallel.runner import ParallelRunner
from repro.program.structure import ProgramStructure
from repro.sim.perturbation import PerturbationConfig

__all__ = ["verify_distributions"]


def _verify_batch_task(
    spec: Tuple[
        ClusterSpec,
        ProgramStructure,
        Optional[PerturbationConfig],
        object,
        Tuple[Tuple[int, ...], ...],
    ]
) -> List[float]:
    from repro.sim.executor import emulate_many

    cluster, program, perturbation, dynamics, counts_batch = spec
    results = emulate_many(
        cluster,
        program,
        [GenBlock(counts) for counts in counts_batch],
        perturbation=perturbation,
        dynamics=dynamics,
    )
    return [r.total_seconds for r in results]


def verify_distributions(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distributions: Sequence[GenBlock],
    jobs: int = 1,
    perturbation: Optional[PerturbationConfig] = None,
    *,
    dynamics=None,
    run_cache=None,
    telemetry: Optional[Recorder] = None,
) -> List[float]:
    """Actual (emulated) execution time of each distribution, in order.

    Every run seeds its RNG streams from ``(cluster, program,
    distribution, node)``, so the result is independent of ``jobs``.
    ``dynamics`` follows the :func:`emulate` convention (``None`` =
    use ``cluster.dynamics``, ``False`` = force static, or an explicit
    :class:`~repro.cluster.dynamics.DynamicsSpec`).  ``run_cache`` is
    forwarded to :func:`emulate_many` (``None`` means the process
    default :class:`RunCache`, ``False`` disables caching).
    """
    rec = as_recorder(telemetry)
    if jobs == 1 or len(distributions) <= 1:
        from repro.sim.executor import emulate_many

        with rec.span("parallel/verify"):
            results = [
                r.total_seconds
                for r in emulate_many(
                    cluster,
                    program,
                    distributions,
                    perturbation=perturbation,
                    dynamics=dynamics,
                    run_cache=run_cache,
                    telemetry=telemetry,
                )
            ]
        if rec:
            rec.count("verify/runs", len(results))
        return results

    n_shards = min(max(int(jobs), 1), max(len(distributions), 1))
    shards: List[List[Tuple[int, ...]]] = [[] for _ in range(n_shards)]
    for i, d in enumerate(distributions):
        shards[i % n_shards].append(tuple(d.counts))
    tasks = [
        (cluster, program, perturbation, dynamics, tuple(shard))
        for shard in shards
        if shard
    ]
    with rec.span("parallel/verify"):
        shard_results = ParallelRunner(jobs, telemetry=telemetry).map(
            _verify_batch_task, tasks
        )
    results: List[float] = [0.0] * len(distributions)
    for shard_index, seconds in enumerate(shard_results):
        for j, value in enumerate(seconds):
            results[shard_index + j * n_shards] = value
    if rec:
        rec.count("verify/runs", len(results))
    return results
