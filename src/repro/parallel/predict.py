"""Sharded batched prediction across worker processes.

``MhetaModel.predict(batch=True)`` already vectorizes a candidate
population inside one process; for very large populations (exhaustive
enumerations, Figure-9 style sweeps) the batch itself can be sharded
across a process pool.  Each worker scores one contiguous shard with the
vectorized kernel, so the fan-out composes with — rather than replaces —
the in-process batching.  The model is deterministic, so results are
bit-identical to the serial batch regardless of ``jobs``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.distribution.genblock import GenBlock
from repro.obs import Recorder, as_recorder
from repro.parallel.runner import ParallelRunner, split_shards

__all__ = ["predict_sharded", "predict_2d_sharded"]


def _predict_shard_task(spec) -> List[float]:
    model, counts_list, iterations = spec
    dists = [GenBlock(counts) for counts in counts_list]
    return [float(v) for v in model.predict(dists, iterations, batch=True)]


def _predict_shard_task_2d(spec) -> List[float]:
    from repro.twod.distribution2d import GenBlock2D

    model, bands_list, iterations = spec
    dists = [GenBlock2D(rows, cols) for rows, cols in bands_list]
    return [float(v) for v in model.predict(dists, iterations, batch=True)]


def predict_sharded(
    model,
    distributions: Sequence[GenBlock],
    jobs: int = 1,
    *,
    iterations: Optional[int] = None,
    telemetry: Optional[Recorder] = None,
) -> List[float]:
    """Predicted execution time of each distribution, in input order.

    With ``jobs=1`` this is exactly one ``predict(batch=True)`` call in
    the calling process (no pool, no pickling).  With more workers the
    candidate list is split into one contiguous shard per worker; each
    shard rides the vectorized kernel independently.

    ``iterations`` and ``telemetry`` propagate to every shard the same
    way the single-process call would apply them (workers record
    nothing — the coordinating side records dispatch telemetry).
    """
    payload: List[Tuple[int, ...]] = [tuple(d.counts) for d in distributions]
    rec = as_recorder(telemetry)
    runner = ParallelRunner(jobs, telemetry=telemetry)
    with rec.span("parallel/predict_sharded"):
        if runner.jobs <= 1:
            values = _predict_shard_task((model, payload, iterations))
        else:
            # ProcessPoolExecutor needs a module-level callable; pair
            # each shard with the model instead of closing over it.
            shards = split_shards(payload, runner.jobs)
            results = runner.map(
                _predict_shard_task, [(model, s, iterations) for s in shards]
            )
            values = [v for shard in results for v in shard]
    if rec:
        rec.count("parallel/predictions", len(values))
    return values


def predict_2d_sharded(
    model,
    distributions: Sequence,
    jobs: int = 1,
    *,
    iterations: Optional[int] = None,
    telemetry: Optional[Recorder] = None,
) -> List[float]:
    """The 2-D sibling of :func:`predict_sharded`: score a
    ``GenBlock2D`` population across worker processes, in input order.

    Each worker rebuilds its shard's distributions from (row bands,
    column bands) tuples and scores them with the vectorized 2-D kernel
    (``TwoDModel.__getstate__`` drops the model's plans, so workers
    rebuild them lazily).  Results are
    bit-identical to the serial batch regardless of ``jobs``.
    """
    payload: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [
        (tuple(d.row_counts), tuple(d.col_counts)) for d in distributions
    ]
    rec = as_recorder(telemetry)
    runner = ParallelRunner(jobs, telemetry=telemetry)
    with rec.span("parallel/predict_2d_sharded"):
        if runner.jobs <= 1:
            values = _predict_shard_task_2d((model, payload, iterations))
        else:
            shards = split_shards(payload, runner.jobs)
            results = runner.map(
                _predict_shard_task_2d,
                [(model, s, iterations) for s in shards],
            )
            values = [v for shard in results for v in shard]
    if rec:
        rec.count("parallel/predictions", len(values))
    return values
