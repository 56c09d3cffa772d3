"""Compiled evaluation plans for the 2-D kernel.

The 2-D model's iteration — stage sweep, four-direction halo exchange,
residual allreduce — applies only ``max`` and ``+ constant`` to the
per-rank clocks on a schedule that never depends on the clock values, so
one whole iteration is a max-plus linear map of the clocks.  For a
candidate layout the map factors as

    ``M = M_red (x) A``

where ``A`` is the 5-point-stencil halo matrix (diagonal = the rank's
stage + its full send sequence + its receive overheads; one off-diagonal
entry per grid neighbour = the sender's cumulative send-order offset +
the in-flight transfer + the receiver's remaining receive overheads) and
``M_red`` is the constant reduce+broadcast matrix the 1-D kernel already
extracts via basis replay.  :class:`EvaluationPlan2D` lowers one
*(spec, cluster, grid shape)* triple into the index tables that build
``A`` for a whole ``(B, P)`` candidate population in a handful of array
operations, then walks ``M`` with the 1-D kernel's steady-state walk
(:func:`repro.core.model.steady_walk`), and folds the per-rank totals
with a pairwise tree max.

There is no per-``(node, rows)`` table store: the 2-D stage quantities
are cheap closed forms (the instrumented per-element compute rate
scaled by tile area, plus the streaming-I/O terms), so the plan instead
memoizes the *composed iteration matrices* per candidate batch — a
repeated population (GBS re-scoring a grid, hill climbs revisiting
neighbours) costs one gather instead of a rebuild.  Each
:class:`~repro.twod.jacobi2d.TwoDModel` holds its own plans, one per
grid shape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.comm import maxplus_compose_batch
from repro.core.model import steady_walk
from repro.exceptions import ModelError
from repro.program.sections import CommPattern

__all__ = ["EvaluationPlan2D"]

#: Direction axis per direction index (north/south move rows — the halo
#: is a tile *row* of ``cols`` elements; west/east move columns).
_NS = 0
_WE = 1


class EvaluationPlan2D:
    """One *(spec, cluster, grid shape)* triple lowered flat.

    ``execute`` scores a validated candidate population: ``(B, R)`` row
    bands and ``(B, C)`` column bands in, ``(B,)`` predicted totals out
    (or the per-rank ``(B, P)`` clock totals with ``reduce=False`` —
    the report path).
    """

    def __init__(self, model, grid_shape: Optional[Tuple[int, int]] = None):
        if grid_shape is None:
            grid_shape = model.inputs.distribution0.grid_shape
        R, C = grid_shape
        cluster = model.cluster
        spec = model.spec
        inputs = model.inputs
        P = R * C
        if P != cluster.n_nodes:
            raise ModelError(
                f"grid {R}x{C} does not cover {cluster.n_nodes} nodes"
            )
        self.grid_shape = (R, C)
        self.P = P
        micro = inputs.micro

        # -- per-rank constants (float64 row vectors) ----------------------
        self._esize = float(spec.element_size)
        self._os = micro.send_overhead
        self._or = micro.recv_overhead
        self._byte_lat = micro.byte_latency
        self._fixed_lat = micro.fixed_latency
        area0 = np.array(
            [inputs.distribution0.tile_elements(r) for r in range(P)],
            dtype=float,
        )
        self._rate = np.asarray(inputs.compute_seconds, dtype=float) / area0
        self._mem = cluster.memory_bytes.astype(float)
        self._rseek = np.array([d.read_seek for d in micro.disks])
        self._wseek = np.array([d.write_seek for d in micro.disks])
        self._rpb = np.asarray(inputs.read_per_byte, dtype=float)
        self._wpb = np.asarray(inputs.write_per_byte, dtype=float)

        # -- grid index tables (candidate-independent) ---------------------
        ranks = np.arange(P)
        self._gi = ranks // C  # grid row of each rank
        self._gj = ranks % C  # grid column of each rank

        # Neighbour lists in the fixed DIRECTIONS order (north, south,
        # west, east; only existing).  ``pos_axis[r, p]`` is the halo
        # axis of rank r's p-th send; edges are receiver-centric.
        from repro.twod.distribution2d import GenBlock2D

        probe = GenBlock2D([1] * R, [1] * C)
        pos_axis = np.zeros((P, 4), dtype=np.int64)
        pos_valid = np.zeros((P, 4), dtype=bool)
        pos_of = {}
        degree = np.zeros(P, dtype=np.int64)
        for r in range(P):
            for p, (direction, _other) in enumerate(probe.neighbors(r)):
                pos_axis[r, p] = _NS if direction in ("north", "south") else _WE
                pos_valid[r, p] = True
                pos_of[(r, direction)] = p
            degree[r] = len(probe.neighbors(r))
        recv_e, send_e, recv_coeff, send_pos = [], [], [], []
        from repro.twod.jacobi2d import _OPPOSITE

        for r in range(P):
            for i, (direction, other) in enumerate(probe.neighbors(r)):
                recv_e.append(r)
                send_e.append(other)
                # t = max(t, deliver_i) + or_ folded over the k receives
                # leaves deliver_i carrying (k - i) receive overheads.
                recv_coeff.append((degree[r] - i) * self._or)
                send_pos.append(pos_of[(other, _OPPOSITE[direction])])
        self._pos_axis = pos_axis
        self._pos_valid = pos_valid
        self._degree = degree
        self._recv_e = np.array(recv_e, dtype=np.int64)
        self._send_e = np.array(send_e, dtype=np.int64)
        self._recv_coeff = np.array(recv_coeff, dtype=float)
        self._send_pos = np.array(send_pos, dtype=np.int64)

        # Constant reduce+broadcast matrix (basis replay, cached on the
        # model's timeline exactly like the 1-D sections).
        if P == 1:
            self._m_red = np.zeros((1, 1))
        else:
            self._m_red = model._timeline._maxplus_matrix(
                CommPattern.REDUCTION, 8.0
            )

        # Composed-matrix memo: repeated small populations gather their
        # (B, P, P) iteration matrices instead of rebuilding them.
        self._m_memo = {}
        self.executes = 0

    # -- candidate lowering ------------------------------------------------

    def _stage_tables(self, rows_t: np.ndarray, cols_t: np.ndarray):
        """Vectorized per-rank closed forms over ``(B, P)`` tiles:
        stage seconds plus the two per-axis halo-read costs."""
        area = (rows_t * cols_t).astype(float)
        compute = self._rate * area
        tile_bytes = area * self._esize
        in_core = tile_bytes <= self._mem
        row_bytes = cols_t.astype(float) * self._esize
        chunk = np.floor(self._mem / np.maximum(row_bytes, 1e-12))
        chunk = np.minimum(np.maximum(chunk, 1.0), np.maximum(rows_t, 1))
        n_io = np.ceil(rows_t / chunk)
        io = n_io * (self._rseek + self._wseek) + tile_bytes * (
            self._rpb + self._wpb
        )
        stage = np.where(in_core, compute, compute + io)
        ns_nbytes = cols_t * self._esize
        we_nbytes = rows_t * self._esize
        halo_ns = np.where(
            in_core, 0.0, self._rseek + ns_nbytes * self._rpb
        )
        halo_we = np.where(
            in_core, 0.0, self._rseek + we_nbytes * self._rpb
        )
        return stage, halo_ns, halo_we, ns_nbytes, we_nbytes

    def _matrices(self, rowc: np.ndarray, colc: np.ndarray) -> np.ndarray:
        """The composed ``(B, P, P)`` per-iteration matrices."""
        B = rowc.shape[0]
        P = self.P
        rows_t = rowc[:, self._gi]
        cols_t = colc[:, self._gj]
        stage, halo_ns, halo_we, ns_nbytes, we_nbytes = self._stage_tables(
            rows_t, cols_t
        )
        # Send sequence: per position, disk halo read + send overhead,
        # accumulated in DIRECTIONS order (the emulator's fixed order).
        ns = self._pos_axis == _NS  # (P, 4)
        step = np.where(ns, halo_ns[:, :, None], halo_we[:, :, None])
        step = np.where(self._pos_valid, step + self._os, 0.0)
        sendcum = np.cumsum(step, axis=2)
        nbytes = np.where(ns, ns_nbytes[:, :, None], we_nbytes[:, :, None])
        transfer = self._fixed_lat + nbytes * self._byte_lat
        deliver = stage[:, :, None] + sendcum + transfer
        A = np.full((B, P, P), -np.inf)
        diag = stage + sendcum[:, :, -1] + self._degree * self._or
        A[:, np.arange(P), np.arange(P)] = diag
        if len(self._recv_e):
            A[:, self._recv_e, self._send_e] = (
                deliver[:, self._send_e, self._send_pos] + self._recv_coeff
            )
        if P == 1:
            return A
        return maxplus_compose_batch(
            np.broadcast_to(self._m_red, (B, P, P)), A
        )

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        rowc: np.ndarray,
        colc: np.ndarray,
        n_iter: int,
        *,
        reduce: bool = True,
    ) -> np.ndarray:
        """Score a validated candidate population.

        ``rowc``/``colc`` are ``(B, R)``/``(B, C)`` int64 band matrices;
        returns the ``(B,)`` predicted totals, or the per-rank ``(B, P)``
        clock totals with ``reduce=False``.
        """
        self.executes += 1
        key = (rowc.tobytes(), colc.tobytes())
        M = self._m_memo.get(key)
        if M is None:
            M = self._matrices(rowc, colc)
            if rowc.shape[0] <= 64:  # bound the memo's footprint
                if len(self._m_memo) >= 8:
                    self._m_memo.pop(next(iter(self._m_memo)))
                self._m_memo[key] = M
        totals, _ = steady_walk(
            [lambda clocks: (M + clocks[:, None, :]).max(axis=2)],
            n_iter,
            M.shape[:2],
        )
        if not reduce:
            return totals
        P = self.P
        if P == 1:
            return totals[:, 0].copy()
        # Pairwise-halving max over nodes (totals is walk scratch).
        m = P
        while m > 2:
            h = m // 2
            np.maximum(
                totals[:, : m - h], totals[:, h:m], out=totals[:, : m - h]
            )
            m -= h
        return np.maximum(totals[:, 0], totals[:, 1])

    @property
    def stats(self) -> dict:
        """Per-plan diagnostics."""
        return {
            "mode": "matrix2d",
            "grid_shape": self.grid_shape,
            "memo_entries": len(self._m_memo),
            "executes": self.executes,
        }
