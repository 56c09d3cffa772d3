"""Scalar references for the MHETA prediction models.

The library predicts through one batched numpy path per model
(:class:`repro.core.model.MhetaModel` and
:class:`repro.twod.TwoDModel`).  This module keeps the original
per-tile, per-stage, per-block Python loops as test oracles: the
differential tests hold every batched prediction to within 1e-12
relative of them, and the legacy speed benches time them as the scalar
baseline.

:class:`ReferenceModel` and :class:`ReferenceModel2D` subclass the
models they check, so they share construction, validation, the
``predict(d, iterations=, batch=, report=)`` surface and the report
assembly, and replace only the evaluation: a batch is a loop of single
scalar predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.io_model import StageTimeModel
from repro.core.model import _ATOL, _RTOL, MhetaModel, _SectionTables
from repro.distribution.genblock import GenBlock
from repro.exceptions import ModelError
from repro.placement import MemoryPlan
from repro.program.sections import CommPattern, ParallelSection
from repro.program.stages import Stage
from repro.twod.distribution2d import GenBlock2D
from repro.twod.jacobi2d import _OPPOSITE, TwoDModel

__all__ = ["ReferenceModel", "ReferenceModel2D", "StageTimes", "tile_stage_times"]


# -- 1-D stage times -------------------------------------------------------------


@dataclass(frozen=True)
class StageTimes:
    """Predicted time for one stage on one tile of one node."""

    compute_seconds: float
    io_seconds: float

    @property
    def total(self) -> float:
        return self.compute_seconds + self.io_seconds


def tile_stage_times(
    stage_model: StageTimeModel,
    node: int,
    rows: int,
    section: ParallelSection,
    stage: Stage,
    tile_rows: int,
    plan: MemoryPlan,
) -> StageTimes:
    """Predicted computation + I/O for ``stage`` over one tile's
    ``tile_rows`` of ``rows`` total node rows, through the per-block
    streaming loops of ``stage_model``."""
    compute_total = stage_model.scaled_compute(node, section, stage, rows)
    tile_compute = (
        compute_total * (tile_rows / rows) if rows > 0 else 0.0
    )
    variables = stage_model._program.variable_map

    def _ooc(name: str) -> bool:
        p = plan.placements.get(name)
        return p is not None and not p.in_core

    reads_ooc = [v for v in stage.reads if _ooc(v)]
    writes_ooc = [v for v in stage.writes if _ooc(v)]
    primary = reads_ooc[0] if reads_ooc else None

    if primary is None or tile_rows == 0:
        io = 0.0
        for name in writes_ooc:
            io += stage_model._stream_seconds(
                node, name, plan, tile_rows, read=False, write=True
            )
        return StageTimes(compute_seconds=tile_compute, io_seconds=io)

    io = 0.0
    for name in reads_ooc[1:]:
        io += stage_model._stream_seconds(
            node, name, plan, tile_rows, read=True, write=False
        )
    write_back = (
        primary in stage.writes and variables[primary].writes_back
    )
    if stage_model._program.prefetch:
        io += stage_model._prefetch_loop_seconds(
            node, primary, plan, tile_rows, tile_compute, write_back
        )
    else:
        io += stage_model._sync_loop_seconds(
            node, primary, plan, tile_rows, write_back
        )
    for name in writes_ooc:
        if name == primary:
            continue
        io += stage_model._stream_seconds(
            node, name, plan, tile_rows, read=False, write=True
        )
    return StageTimes(compute_seconds=tile_compute, io_seconds=io)


def _tile_rows(rows: int, tiles: int, tile: int) -> int:
    lo = (rows * tile) // tiles
    hi = (rows * (tile + 1)) // tiles
    return hi - lo


# -- the 1-D reference model -------------------------------------------------------


class ReferenceModel(MhetaModel):
    """Scalar reference of :class:`MhetaModel`: per-tile, per-stage,
    per-block Python loops and a per-node clock walk in plain lists.
    Each prediction builds every node's tables afresh, as nested
    lists."""

    def _predict_batch(
        self, distributions: List[GenBlock], n_iter: int
    ) -> np.ndarray:
        """A loop of scalar predictions."""
        dists = list(distributions)
        if not dists:
            return np.empty(0)
        return np.array(
            [self._predict(d, n_iter, want_report=False) for d in dists]
        )

    def _predict(self, distribution, n_iter, want_report, telemetry=None):
        self._check(distribution)
        tables = self._section_tables(distribution)
        totals, steady = self._walk_scalar(tables, n_iter)
        if not want_report:
            return max(totals)
        views = [
            _SectionTables(
                section=t.section,
                tile_totals=np.array(t.tile_totals),
                tile_compute=np.array(t.tile_compute),
                source_read=np.array(t.source_read),
            )
            for t in tables
        ]
        return self._report(
            distribution, views, totals, steady, n_iter, telemetry
        )

    # -- tables --------------------------------------------------------------------

    def _source_read(self, n: int, section: ParallelSection, plan) -> float:
        """Disk read charged for materialising one outgoing message."""
        src = section.comm.source_variable
        if (
            src is not None
            and section.comm.pattern is CommPattern.NEAREST_NEIGHBOR
        ):
            placement = plan.placements.get(src)
            if placement is not None and not placement.in_core:
                return self.stage_model.read_block_seconds(
                    n, src, section.comm.message_bytes
                )
        return 0.0

    def _node_tables(self, n: int, rows: int, plan):
        """Per section, for one node: tile stage-times (total and
        compute-only) plus the message source-read cost."""
        out = []
        for section in self.program.sections:
            totals: List[float] = []
            computes: List[float] = []
            for tile in range(section.tiles):
                trows = _tile_rows(rows, section.tiles, tile)
                c_sum = 0.0
                t_sum = 0.0
                for stage in section.stages:
                    st = tile_stage_times(
                        self.stage_model, n, rows, section, stage, trows,
                        plan,
                    )
                    c_sum += st.compute_seconds
                    t_sum += st.total
                totals.append(t_sum)
                computes.append(c_sum)
            out.append((totals, computes, self._source_read(n, section, plan)))
        return out

    def _section_tables(self, distribution: GenBlock) -> List[_SectionTables]:
        """Per section, the per-node tile stage-times (split by compute
        and I/O) and message source-read costs, as nested lists.  These
        are the same for every iteration, so the iteration loop only
        replays the communication timeline."""
        P = self.n_nodes
        counts = distribution.counts
        per_node = [
            self._node_tables(n, counts[n], self.oracle.plan(n, counts[n]))
            for n in range(P)
        ]
        return [
            _SectionTables(
                section=section,
                tile_totals=[per_node[n][si][0] for n in range(P)],
                tile_compute=[per_node[n][si][1] for n in range(P)],
                source_read=[per_node[n][si][2] for n in range(P)],
            )
            for si, section in enumerate(self.program.sections)
        ]

    # -- the scalar walk -------------------------------------------------------------

    def _walk_scalar(
        self, tables: List[_SectionTables], n_iter: int
    ) -> Tuple[List[float], List[float]]:
        """Reference per-node clock walk (plain Python lists)."""
        P = self.n_nodes
        clocks = [0.0] * P
        iter_ends: List[List[float]] = []
        profile = self.program.iteration_profile
        if profile is None:
            # Iterations are identical in cost, but the per-node clocks
            # need a few iterations for their wait pattern to settle
            # (pipeline fill, neighbour-wait coupling).  Walk iterations
            # until the per-iteration increment vector repeats exactly,
            # then extrapolate the rest linearly; a cycle is guaranteed
            # quickly in practice, and the walk is capped by n_iter.
            prev_steady = None
            simulate = 0
            while simulate < n_iter:
                for t in tables:
                    clocks = self.timeline.advance(
                        t.section.comm.pattern,
                        clocks,
                        t.tile_totals,
                        t.section.comm.message_bytes,
                        t.source_read,
                    )
                iter_ends.append(list(clocks))
                simulate += 1
                if len(iter_ends) >= 2:
                    steady_now = [
                        iter_ends[-1][n] - iter_ends[-2][n] for n in range(P)
                    ]
                    if prev_steady is not None and all(
                        abs(a - b) <= _ATOL + _RTOL * abs(b)
                        for a, b in zip(steady_now, prev_steady)
                    ):
                        break
                    prev_steady = steady_now
            if n_iter == 1 or len(iter_ends) < 2:
                totals = iter_ends[0]
                steady = list(iter_ends[0])
            else:
                steady = [
                    iter_ends[-1][n] - iter_ends[-2][n] for n in range(P)
                ]
                totals = [
                    iter_ends[-1][n] + steady[n] * (n_iter - simulate)
                    for n in range(P)
                ]
            return totals, steady
        # Non-uniform iterations (paper Section 3.1's deferred case):
        # each iteration scales its computation share, and every
        # iteration is walked explicitly — no steady state exists to
        # extrapolate.
        for mult in self._iteration_scales(n_iter):
            for t in tables:
                scaled = [
                    [
                        total + (mult - 1.0) * compute
                        for total, compute in zip(
                            t.tile_totals[n], t.tile_compute[n]
                        )
                    ]
                    for n in range(P)
                ]
                clocks = self.timeline.advance(
                    t.section.comm.pattern,
                    clocks,
                    scaled,
                    t.section.comm.message_bytes,
                    t.source_read,
                )
            iter_ends.append(list(clocks))
        totals = iter_ends[-1]
        if n_iter >= 2:
            steady = [
                iter_ends[-1][n] - iter_ends[-2][n] for n in range(P)
            ]
        else:
            steady = list(iter_ends[0])
        return totals, steady


# -- the 2-D reference model -------------------------------------------------------


class ReferenceModel2D(TwoDModel):
    """Scalar reference of :class:`TwoDModel`: the per-rank loop, one
    max-plus iteration mirror at a time."""

    def _predict_batch(
        self, dists: List[GenBlock2D], n_iter: int
    ) -> np.ndarray:
        """A loop of scalar predictions."""
        out = np.empty(len(dists))
        for i, d in enumerate(dists):
            out[i] = max(self._rank_totals(d, n_iter))
        return out

    def _rank_totals(self, dist: GenBlock2D, n_iter: int) -> List[float]:
        """The per-rank reference loop: every rank's predicted clock
        total (the scalar prediction is their max)."""
        self._validate(dist)
        P = self.cluster.n_nodes
        net = self.inputs.micro
        stage = [self._stage_seconds(rank, dist) for rank in range(P)]

        clocks = [0.0] * P
        prev_steady = None
        ends: List[List[float]] = []
        simulate = 0
        while simulate < n_iter:
            clocks = self._iterate(dist, stage, clocks, net)
            ends.append(list(clocks))
            simulate += 1
            if len(ends) >= 2:
                steady = [ends[-1][n] - ends[-2][n] for n in range(P)]
                if prev_steady is not None and all(
                    abs(a - b) <= 1e-12 + 1e-9 * abs(b)
                    for a, b in zip(steady, prev_steady)
                ):
                    break
                prev_steady = steady
        if n_iter == 1 or len(ends) < 2:
            return list(ends[0])
        steady = [ends[-1][n] - ends[-2][n] for n in range(P)]
        return [
            ends[-1][n] + steady[n] * (n_iter - simulate) for n in range(P)
        ]

    def _stage_seconds(self, rank: int, dist: GenBlock2D) -> float:
        spec = self.spec
        rows, cols = dist.tile(rank)
        area = rows * cols
        area0 = self.inputs.distribution0.tile_elements(rank)
        if area0 <= 0:
            raise ModelError(f"node {rank}: empty instrumented tile")
        compute = self.inputs.compute_seconds[rank] * (area / area0)
        node = self.cluster[rank]
        tile_bytes = spec.tile_bytes(rows, cols)
        if tile_bytes <= node.memory_bytes:
            return compute
        disk = self.inputs.micro.disks[rank]
        row_bytes = cols * spec.element_size
        chunk_rows = max(1, int(node.memory_bytes // max(row_bytes, 1e-12)))
        chunk_rows = min(chunk_rows, rows)
        n_io = -(-rows // chunk_rows)
        io = n_io * (disk.read_seek + disk.write_seek) + tile_bytes * (
            self.inputs.read_per_byte[rank] + self.inputs.write_per_byte[rank]
        )
        return compute + io

    def _halo_read_seconds(self, rank: int, dist: GenBlock2D, nbytes: float) -> float:
        rows, cols = dist.tile(rank)
        node = self.cluster[rank]
        if self.spec.tile_bytes(rows, cols) <= node.memory_bytes:
            return 0.0
        disk = self.inputs.micro.disks[rank]
        return disk.read_seek + nbytes * self.inputs.read_per_byte[rank]

    def _iterate(self, dist, stage, start, net):
        """One iteration's max-plus mirror: stage, halos, allreduce."""
        P = len(start)
        os_ = net.send_overhead
        or_ = net.recv_overhead
        # Halo exchange: sends in DIRECTIONS order, then receives.
        deliver: Dict[Tuple[int, str], float] = {}
        ready = [0.0] * P
        for rank in range(P):
            t = start[rank] + stage[rank]
            for direction, _other in dist.neighbors(rank):
                nbytes = dist.halo_elements(rank, direction) * self.spec.element_size
                t += self._halo_read_seconds(rank, dist, nbytes)
                t += os_
                deliver[(rank, direction)] = t + net.transfer_seconds(nbytes)
            ready[rank] = t
        after_halo = list(ready)
        for rank in range(P):
            t = ready[rank]
            for direction, other in dist.neighbors(rank):
                t = max(t, deliver[(other, _OPPOSITE[direction])]) + or_
            after_halo[rank] = t
        # Residual allreduce: reuse the 1-D reduction mirror.
        return self._timeline.advance(
            CommPattern.REDUCTION,
            after_halo,
            [[0.0]] * P,
            8.0,
            [0.0] * P,
        )
