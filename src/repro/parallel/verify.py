"""Parallel emulator verification of search winners.

A distribution search returns the candidate MHETA *predicts* is
fastest; the honest experiment then runs the emulator on each winner to
see what it *actually* costs (benchmarks' ``search_comparison`` table,
the CLI's ``search --verify``).

One verification round is one batched
:func:`~repro.sim.executor.emulate_many` pass: the population shares a
single emulator, which pins the configuration's compiled
:class:`~repro.sim.plan_sim.EmulationPlan` once and routes each
candidate on its own.  ``jobs > 1`` looks the population up in the run
cache first, deals the misses round-robin (the ``j``-th miss to shard
``j % n_shards``) to one batched pass per worker, and puts the
workers' results back into the cache, so results and the cache's
contents stay independent of ``jobs``.  So does the telemetry: each
worker's recorder is merged into the caller's.
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
        bool,
    ]
) -> Tuple[list, Optional[Recorder]]:
    """One shard's batched pass: its results and, if ``record``, telemetry."""
    from repro.sim.executor import emulate_many

    cluster, program, perturbation, dynamics, counts_batch, record = spec
    rec = Recorder() if record else None
    # The parent owns the run cache: it looked these up and stores them.
    results = emulate_many(
        cluster,
        program,
        [GenBlock(counts) for counts in counts_batch],
        perturbation=perturbation,
        dynamics=dynamics,
        run_cache=False,
        telemetry=rec,
    )
    return results, rec


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
    :class:`~repro.cluster.dynamics.DynamicsSpec`).  ``run_cache``
    follows :func:`emulate_many` (``None`` means the process default
    :class:`RunCache`, ``False`` disables caching); every ``jobs``
    value reads it and leaves it holding the same entries.
    """
    from repro.sim.executor import _run_keys, _run_store, emulate_many

    rec = as_recorder(telemetry)
    if jobs == 1 or len(distributions) <= 1:
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

    store = _run_store(run_cache)
    totals: List[Optional[float]] = [None] * len(distributions)
    keys: List[Optional[str]] = [None] * len(distributions)
    if store is not None:
        keys = _run_keys(
            cluster, program, distributions,
            perturbation=perturbation, dynamics=dynamics,
        )
        for i, key in enumerate(keys):
            hit = store.get(key)
            if hit is not None:
                totals[i] = hit.total_seconds
    misses = [i for i, total in enumerate(totals) if total is None]

    n_shards = min(max(int(jobs), 1), max(len(misses), 1))
    shards: List[List[int]] = [[] for _ in range(n_shards)]
    for j, i in enumerate(misses):
        shards[j % n_shards].append(i)
    tasks = [
        (cluster, program, perturbation, dynamics,
         tuple(tuple(distributions[i].counts) for i in shard), bool(rec))
        for shard in shards
        if shard
    ]
    with rec.span("parallel/verify"):
        shard_results = ParallelRunner(jobs, telemetry=telemetry).map(
            _verify_batch_task, tasks
        )
    fresh = []
    for shard, (results, worker_rec) in zip(shards, shard_results):
        if worker_rec is not None:
            rec.merge(worker_rec)
        for i, result in zip(shard, results):
            totals[i] = result.total_seconds
            fresh.append((keys[i], result))
    if store is not None:
        store.put_many(fresh)
    if rec:
        rec.count("verify/runs", len(totals))
        rec.count("verify/cache_hits", len(totals) - len(misses))
    return totals
