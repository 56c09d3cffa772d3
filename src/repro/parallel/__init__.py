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
* :class:`RunCache` — bounded memoisation of whole emulator runs,
  with the same optional on-disk tier;
* :func:`verify_distributions` — parallel emulator verification of
  search winners.

Model predictions are not fanned out: one vectorized
``predict(batch=True)`` pass in the calling process beats a process
pool at every population size the searches produce.

Determinism: every emulator run seeds its RNG streams from
``(cluster, program, distribution, node)`` labels (see
``repro.sim.perturbation``), so results do not depend on which process
runs them or in which order — fan-out is bit-identical to serial
execution by construction, and the equivalence is regression-tested.
"""

from repro.parallel.runner import ParallelRunner, resolve_jobs
from repro.parallel.cache import (
    RunCache,
    SweepCache,
    content_key,
    default_run_cache,
)
from repro.parallel.verify import verify_distributions

__all__ = [
    "ParallelRunner",
    "resolve_jobs",
    "RunCache",
    "SweepCache",
    "content_key",
    "default_run_cache",
    "verify_distributions",
]
