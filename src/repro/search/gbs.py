"""Generalized Binary Search (GBS) — reconstruction of [26].

The companion paper's text is unavailable; this reconstruction keeps the
two properties the MHETA paper relies on: (1) the search walks the
spectrum of Figure 8 ("an algorithm searching for a data distribution
between I-C and I-C/Bal can use MHETA to determine which point results
in the lowest execution time"), and (2) it needs few evaluations because
each is cheap.

Strategy: along every leg of the anchor path Blk -> I-C -> I-C/Bal ->
Bal, build the leg's full interpolation grid (spacing ``resolution``)
in one numpy pass (:func:`~repro.distribution.spectrum.interpolate_many`:
every blend is rounded at once, bit-identical to rounding each point
on its own, and the grid is validated once) and score it in one
batched evaluation.  The population goes through ``evaluate.batch``,
which deduplicates the rounded GEN_BLOCKs (grid neighbours collide
after integer rounding, legs share their anchor endpoints) and feeds
the distinct misses to the model's vectorized ``predict(batch=True)``
in a single pass.  A row-exchange hill climb between the predicted
bottleneck node and the node with the most slack finishes the search.
Scoring the whole grid costs the same batch the old two-probe
bisection spread over many rounds of Python-level calls, needs no
unimodality assumption, and cannot miss a dip between probe points.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.model import MhetaModel
from repro.distribution.factories import balanced, block, in_core, in_core_balanced
from repro.distribution.genblock import GenBlock
from repro.distribution.spectrum import has_memory_pressure, interpolate_many
from repro.search.base import SearchAlgorithm, evaluate_batch

__all__ = ["GeneralizedBinarySearch"]


class GeneralizedBinarySearch(SearchAlgorithm):
    """Batched grid search along the anchor legs plus a hill climb."""

    name = "gbs"
    requires_cluster = True

    def __init__(
        self,
        model: MhetaModel,
        cluster: Optional[ClusterSpec] = None,
        *,
        resolution: float = 1.0 / 64.0,
        hill_climb_steps: int = 24,
        batch_size: int = 64,
        seed_label: str = "",
    ) -> None:
        super().__init__(
            model, cluster, batch_size=batch_size, seed_label=seed_label
        )
        self.resolution = resolution
        self.hill_climb_steps = hill_climb_steps

    # -- anchors ---------------------------------------------------------------

    def _anchors(self) -> List[GenBlock]:
        program = self.model.program
        anchors = [block(self.cluster, self.n_rows)]
        if has_memory_pressure(self.cluster, program):
            anchors.append(in_core(self.cluster, program))
            if not self.cluster.is_cpu_homogeneous:
                anchors.append(in_core_balanced(self.cluster, program))
        if not self.cluster.is_cpu_homogeneous:
            anchors.append(balanced(self.cluster, self.n_rows))
        return anchors

    # -- the search --------------------------------------------------------------

    def _leg_search(
        self,
        evaluate: Callable[[GenBlock], float],
        a: GenBlock,
        b: GenBlock,
    ) -> Tuple[GenBlock, float]:
        """Score the leg's full interpolation grid in one batched pass."""
        steps = max(int(round(1.0 / self.resolution)), 1)
        grid = [a, *interpolate_many(a, b, np.arange(1, steps) / steps), b]
        values = evaluate_batch(evaluate, grid)
        best_i = min(range(len(values)), key=values.__getitem__)
        return grid[best_i], values[best_i]

    def _hill_climb(
        self,
        evaluate: Callable[[GenBlock], float],
        start: GenBlock,
    ) -> GenBlock:
        """Move rows from the predicted bottleneck node to the node whose
        predicted time is lowest, shrinking the step on failure."""
        # Bottleneck inspection goes through the evaluator's budgeted
        # report path so the per-node breakdowns are cached and counted
        # (a bare callable, e.g. in unit tests, falls back to the model).
        reporter = getattr(evaluate, "report", None)
        if reporter is None:
            reporter = lambda d: self.model.predict(d, report=True)  # noqa: E731
        current = start
        value = evaluate(current)
        step = max(self.n_rows // 64, 1)
        for _ in range(self.hill_climb_steps):
            report = reporter(current)
            totals = [n.total_seconds for n in report.nodes]
            src = int(np.argmax(totals))
            dst = int(np.argmin(totals))
            if src == dst or current[src] - step < 1:
                step = max(step // 2, 1)
                if step == 1 and current[src] <= 1:
                    break
                continue
            candidate = current.moved(src, dst, step)
            cand_val = evaluate(candidate)
            if cand_val < value:
                current, value = candidate, cand_val
            else:
                if step == 1:
                    break
                step = max(step // 2, 1)
        return current

    def _run(
        self,
        evaluate: Callable[[GenBlock], float],
        start: Optional[GenBlock],
    ) -> GenBlock:
        anchors = self._anchors()
        best: Optional[GenBlock] = start
        best_val = evaluate(start) if start is not None else float("inf")
        for a, b in zip(anchors, anchors[1:]):
            dist, val = self._leg_search(evaluate, a, b)
            if val < best_val:
                best, best_val = dist, val
        if best is None:
            best = anchors[0]
        return self._hill_climb(evaluate, best)
