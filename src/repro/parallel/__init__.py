"""Fan-out execution layer: process pools, memoisation, verification.

The paper's usability claim is that a MHETA evaluation costs ~5.4 ms —
cheap enough to use "on the fly".  The *experiments around* the model,
however, are dominated by emulator runs, and a Figure-9 sweep
(17 architectures x 4 applications x full spectrum) is embarrassingly
parallel.  This package provides the shared machinery:

* :class:`ParallelRunner` — ordered ``map`` over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, with a
  deterministic serial fallback at ``jobs=1``;
* :class:`SweepCache` / :func:`content_key` — content-keyed
  memoisation of ``(cluster, program, distribution) -> (actual,
  predicted)`` pairs, in memory and optionally on disk;
* :func:`verify_distributions` — parallel emulator verification of
  search winners;
* :func:`predict_sharded` — shard a large candidate batch
  across workers, each scoring its slice with the vectorized
  ``predict(batch=True)`` kernel.

Determinism: every emulator run seeds its RNG streams from
``(cluster, program, distribution, node)`` labels (see
``repro.sim.perturbation``), so results do not depend on which process
runs them or in which order — fan-out is bit-identical to serial
execution by construction, and the equivalence is regression-tested.
"""

from repro.parallel.runner import ParallelRunner, resolve_jobs, split_shards
from repro.parallel.cache import (
    RunCache,
    SweepCache,
    content_key,
    default_run_cache,
)
from repro.parallel.predict import predict_2d_sharded, predict_sharded
from repro.parallel.verify import verify_distributions

__all__ = [
    "ParallelRunner",
    "resolve_jobs",
    "split_shards",
    "RunCache",
    "SweepCache",
    "content_key",
    "default_run_cache",
    "predict_sharded",
    "predict_2d_sharded",
    "verify_distributions",
]
