"""Ordered process-pool ``map`` with a deterministic serial fallback.

Experiment fan-out has one requirement beyond speed: results must be
bit-identical to serial execution.  :meth:`ParallelRunner.map` therefore
mirrors the semantics of the builtin ``map`` exactly — results come back
in input order, regardless of which worker finished first — and with
``jobs=1`` no pool is created at all, so the serial path *is* the plain
loop it replaces.

Task functions must be module-level (picklable) and their arguments
plain data; every worker is independent, which the seeded-per-run RNG
streams of the emulator guarantee (see ``repro.parallel``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.obs import Recorder, as_recorder

__all__ = ["ParallelRunner", "resolve_jobs"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``1`` = serial, ``0`` or a
    negative value = one worker per CPU."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


class ParallelRunner:
    """Map a task function over items, optionally across processes.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs everything serially
        in the calling process; ``0`` means one worker per CPU.
    telemetry:
        Optional :class:`repro.obs.Recorder`.  Worker processes cannot
        reach the parent's recorder, so what is recorded is the
        coordinating side's view: tasks dispatched, workers used,
        per-``map`` wall time, and per-shard task counts.
    """

    def __init__(
        self, jobs: int = 1, telemetry: Optional[Recorder] = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.telemetry = as_recorder(telemetry)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item; results are returned in input
        order (the property that makes fan-out bit-identical)."""
        work: Sequence[T] = list(items)
        rec = self.telemetry
        started = time.perf_counter() if rec else 0.0
        if self.jobs <= 1 or len(work) <= 1:
            results = [fn(item) for item in work]
            if rec:
                self._record_map(rec, len(work), 1, started)
            return results
        workers = min(self.jobs, len(work))
        # Modest chunking amortises pickling without starving workers.
        chunksize = max(1, len(work) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, work, chunksize=chunksize))
        if rec:
            self._record_map(rec, len(work), workers, started)
        return results

    def _record_map(
        self, rec: Recorder, tasks: int, workers: int, started: float
    ) -> None:
        rec.count("parallel/maps")
        rec.count("parallel/tasks", tasks)
        rec.set("parallel/workers", workers)
        rec.observe("parallel/map_seconds", time.perf_counter() - started)
        # Ordered chunked dispatch: worker w handles ~tasks/workers
        # tasks; record the per-worker share the chunking targets.
        rec.observe("parallel/tasks_per_worker", tasks / max(workers, 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelRunner(jobs={self.jobs})"
