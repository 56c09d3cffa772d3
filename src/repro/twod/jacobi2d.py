"""2-D Jacobi: emulator and MHETA-style model for GenBlock2D layouts.

The 1-D machinery distributes rows only; a 2-D stencil decomposition
owns a ``rows x cols`` tile, exchanges four halos per iteration (north/
south rows, east/west columns) and reduces a residual.  This module
implements that workload twice, exactly like the 1-D core:

* :class:`TwoDEmulator` — each rank is lowered once into the 1-D
  emulator's op vocabulary (:class:`_Lowering2D`: tile sweep, halo
  sends and receives, binomial allreduce) on the same disk model and
  perturbation layer as :mod:`repro.sim`.  Runs take the 1-D
  emulators' one route (:class:`~repro.sim.executor._Emulator`): the
  event engine interprets those tapes, and the shared
  :class:`~repro.sim.plan_sim.EmulationPlan`, one per grid shape,
  replays them bit for bit;
* :class:`TwoDModel` — the analytical mirror, fed by one instrumented
  iteration, measured by the 1-D collector's accumulator, plus the
  standard microbenchmarks.

Under ideal conditions (perturbations off, perfect timers) the two agree
exactly, extending the reproduction's central invariant to 2-D — the
support the paper's Section 5.1 asserts exists before declining to use
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.comm import SectionTimeline, maxplus_compose_batch
from repro.core.model import steady_walk
from repro.exceptions import ModelError, SimulationError
from repro.instrument.collect import (
    _NO_IO,
    MeasurementConfig,
    _measure,
    _per_byte,
)
from repro.instrument.microbench import Microbenchmarks, run_microbenchmarks
from repro.obs import Recorder, as_recorder
from repro.program.sections import CommPattern
from repro.sim.disk import DiskModel
from repro.sim.executor import (
    _Emulator,
    _iterations,
    _resolve_io_mode,
    _TapeLowering,
)
from repro.sim.perturbation import PerturbationConfig, PerturbationModel
from repro.sim.trace import Observer
from repro.twod.distribution2d import GenBlock2D
from repro.util.rng import stream
from repro.util.units import DOUBLE

__all__ = [
    "Jacobi2DSpec",
    "TwoDEmulator",
    "TwoDModel",
    "TwoDReport",
    "TwoDNodeReport",
    "build_2d_model",
]

#: Direction order for halo sends/receives (fixed, mirrored by the model).
DIRECTIONS = ("north", "south", "west", "east")
_OPPOSITE = {"north": "south", "south": "north", "west": "east", "east": "west"}


@dataclass(frozen=True)
class Jacobi2DSpec:
    """The 2-D Jacobi workload: an N x M read-write grid of doubles."""

    n_rows: int
    n_cols: int
    iterations: int = 100
    work_per_element: float = 60e-9
    element_size: int = DOUBLE

    #: Every 2-D iteration sweeps the same tile — there is no per-
    #: iteration work profile.  A plain class attribute (not a field)
    #: so :func:`repro.sim.steady.supports_fast_forward` applies its
    #: 1-D gating rules to the 2-D workload unchanged.
    iteration_profile = None

    def tile_bytes(self, rows: int, cols: int) -> float:
        return rows * cols * self.element_size


#: Section, sweep stage, tile variable and allreduce message size of
#: the 2-D tapes.
_SECTION = "jacobi2d"
_SWEEP = "sweep"
_GRID = "grid2d"
_RESIDUAL_BYTES = 8.0


class _Lowering2D(_TapeLowering):
    """Lowers one rank of 2-D Jacobi into the shared op vocabulary.

    Per iteration: the tile sweep (one ``compute`` in core; out of
    core, per ICLA chunk a read, the chunk's share of the compute and
    a write-back), one halo send per neighbour in :data:`DIRECTIONS`
    order (read from disk first when the tile is out of core), one
    halo receive per neighbour, and the residual's binomial reduce and
    broadcast.
    """

    def __init__(self, emulator: "TwoDEmulator", rank: int,
                 dist: GenBlock2D, instrumented: bool, channel,
                 observe) -> None:
        cluster, spec = emulator.cluster, emulator.spec
        node = cluster[rank]
        rows, cols = dist.tile(rank)
        in_core, chunk_rows = emulator._block_rows(rank, dist, instrumented)
        row_bytes = cols * spec.element_size
        tile_bytes = spec.tile_bytes(rows, cols)
        disk = DiskModel(
            node,
            resident_bytes=(tile_bytes if in_core else chunk_rows * row_bytes),
            cache_enabled=emulator.perturbation.os_read_cache,
        )
        if not in_core:
            disk.register_variable(_GRID, tile_bytes)
        super().__init__(
            rank, cluster.n_nodes, cluster.network, disk, channel, observe
        )
        ws = tile_bytes if in_core else chunk_rows * row_bytes
        factor = emulator._factor_model().compute_factor(node, ws)
        self.base = node.compute_seconds(rows * cols * spec.work_per_element) * factor
        self.rows, self.chunk_rows, self.row_bytes = rows, chunk_rows, row_bytes
        self.in_core = in_core
        self.halos = [
            (direction, other, dist.halo_elements(rank, direction) * spec.element_size)
            for direction, other in dist.neighbors(rank)
        ]

    def _iteration(self, it: int) -> None:
        base, rows = self.base, self.rows
        self.bases[-1].append(base if base > 0.0 else 0.0)
        if self.in_core:
            self._compute(base, 0, _SECTION, 0, _SWEEP)
        else:
            remaining = rows
            while remaining > 0:
                take = min(self.chunk_rows, remaining)
                nbytes = take * self.row_bytes
                self._read(_GRID, nbytes, _SECTION, 0, _SWEEP, take)
                self._compute(base, 0, _SECTION, 0, _SWEEP, take, rows)
                self._write(_GRID, nbytes, _SECTION, 0, _SWEEP, take)
                remaining -= take
        source = None if self.in_core else _GRID
        for direction, other, nbytes in self.halos:
            self._send(other, ("halo", direction), nbytes, _SECTION, source)
        for direction, other, _ in self.halos:
            self._recv(other, ("halo", _OPPOSITE[direction]), _SECTION)
        self._reduce_bcast("allreduce", _SECTION, _RESIDUAL_BYTES)


class TwoDEmulator(_Emulator):
    """Emulated execution of 2-D Jacobi under a GenBlock2D: each rank
    lowered to an op tape (:class:`_Lowering2D`), interpreted by the
    event engine or replayed by a compiled plan, on the 1-D emulator's
    route.  ``dynamics`` follows the 1-D emulator: ``None`` honours
    ``cluster.dynamics``, an explicit spec overrides it, ``False``
    forces static."""

    _prefix = "sim/twod"
    _plan_prefix = "emulate2d:"
    _phase_telemetry = False

    def __init__(
        self,
        cluster: ClusterSpec,
        spec: Jacobi2DSpec,
        perturbation: Optional[PerturbationConfig] = None,
        dynamics=None,
    ) -> None:
        super().__init__(cluster, spec, perturbation, dynamics)
        self.spec = spec

    # -- placement ---------------------------------------------------------

    def _block_rows(self, rank: int, dist: GenBlock2D, forced: bool) -> Tuple[bool, int]:
        """(in_core, rows per ICLA chunk) for the node's tile."""
        rows, cols = dist.tile(rank)
        node = self.cluster[rank]
        tile = self.spec.tile_bytes(rows, cols)
        row_bytes = cols * self.spec.element_size
        if not forced and tile <= node.memory_bytes:
            return True, max(rows, 1)
        budget = node.memory_bytes if not forced else max(tile / 2, row_bytes)
        chunk = max(1, int(budget // max(row_bytes, 1e-12)))
        if forced:
            chunk = max(1, min(chunk, rows // 2 or 1))
        return False, min(chunk, max(rows, 1))

    # -- execution ------------------------------------------------------------

    def run(
        self,
        dist: GenBlock2D,
        *,
        iterations: Optional[int] = None,
        io_mode: str = "auto",
        observer: Optional[Observer] = None,
        telemetry: Optional[Recorder] = None,
        iteration_offset: int = 0,
    ) -> float:
        """Total emulated seconds of ``n_iter`` 2-D Jacobi iterations.

        The keyword surface mirrors :meth:`ClusterEmulator.run`
        (``io_mode``, ``observer``, ``iteration_offset``); the 2-D
        kernel streams synchronously, so ``io_mode="prefetch"`` is
        rejected.

        Routes follow the 1-D emulator.  **Plan**: the compiled
        :class:`~repro.sim.plan_sim.EmulationPlan` of the grid shape
        walks each rank's factor-free tape, keyed by ``(rank, rows,
        cols)``.  A stationary deterministic run longer than the probe
        replays the probe and extrapolates the rest once it converged;
        every other run (noisy, background-loaded, dynamic, an offset
        segment, no longer than the probe, or whose probe did not
        converge) replays all of its iterations, bit-identical to the
        engine.  **Engine**: the event engine interprets the tapes.  An
        observer, an instrumented run and a retired plan take the
        engine; with ``telemetry`` each such run is counted under
        ``sim/twod/fallback/<reason>``, each plan-served one under
        ``sim/twod/plan_runs``.
        """
        instr, io_override = _resolve_io_mode(io_mode)
        if io_override:  # the 2-D kernel has no prefetch pipeline
            raise SimulationError(
                'TwoDEmulator has no prefetch path; use io_mode="auto" '
                'or "sync"'
            )
        if dist.n_nodes != self.cluster.n_nodes:
            raise SimulationError("grid shape does not cover the cluster")
        if dist.n_rows != self.spec.n_rows or dist.n_cols != self.spec.n_cols:
            raise SimulationError("distribution does not cover the array")
        n_iter = _iterations(self.spec, iterations)
        rec = as_recorder(telemetry)
        with rec.span("sim/twod/run"):
            result, served = self._route(
                dist, n_iter, instrumented=instr, offset=iteration_offset,
                observer=observer, telemetry=rec,
            )
        seconds = result.total_seconds
        if rec:
            rec.count("sim/twod/runs")
            if served:
                rec.count("sim/twod/plan_runs")
                if result.fast_forwarded:
                    rec.count("sim/twod/fast_forwards")
            rec.set("sim/twod/nodes", dist.n_nodes)
            rec.set("sim/twod/iterations", n_iter)
            rec.observe("sim/twod/seconds", seconds)
        return seconds

    # -- what a compiled plan asks of the emulator it serves ---------------------

    def _plan_pin(self, dist: GenBlock2D, prefetch: bool) -> Tuple[int, int]:
        """A 2-D plan covers one grid shape: a rank's neighbours, and
        so its comm skeleton, are fixed by the shape."""
        return dist.grid_shape

    def _tape_key(self, rank: int, dist: GenBlock2D) -> tuple:
        return (rank,) + dist.tile(rank)

    def _lower_tapes(self, ranks, dist: GenBlock2D, n_iter: int,
                     prefetch: bool, channel, *, offset: int = 0,
                     instrumented: bool = False, observe=()) -> list:
        """Tapes of ``ranks`` (see :class:`_Lowering2D`); the 2-D kernel
        has one streaming style, so ``prefetch`` changes nothing."""
        return [
            _Lowering2D(self, rank, dist, instrumented, channel, observe)
            .lower(n_iter, offset)
            for rank in ranks
        ]

    def _sampler(self, rank: int, dist: GenBlock2D,
                 instrumented: bool = False) -> PerturbationModel:
        """The RNG-bearing perturbation sampler of one node in one run."""
        return PerturbationModel(
            self.perturbation,
            run_labels=(
                "2d",
                self.cluster.name,
                f"{dist.row_counts}x{dist.col_counts}",
                rank,
                "instr" if instrumented else "run",
            ),
        )


@dataclass(frozen=True)
class TwoDInputs:
    """The 2-D analogue of the internal MHETA file."""

    distribution0: GenBlock2D
    compute_seconds: Tuple[float, ...]  #: per node, at d0's tile areas
    read_per_byte: Tuple[float, ...]
    write_per_byte: Tuple[float, ...]
    micro: Microbenchmarks


@dataclass(frozen=True)
class TwoDNodeReport:
    """Per-rank slice of a 2-D prediction."""

    rank: int
    grid_coords: Tuple[int, int]
    tile: Tuple[int, int]
    total_seconds: float


@dataclass(frozen=True)
class TwoDReport:
    """Full 2-D prediction: the total plus every rank's clock total."""

    distribution: GenBlock2D
    total_seconds: float
    nodes: Tuple[TwoDNodeReport, ...]


#: Halo axis of a send (north/south move a tile *row* of ``cols``
#: elements; west/east move a column of ``rows``).
_NS = 0
_WE = 1


@dataclass(frozen=True)
class _GridTables:
    """One grid shape's candidate-independent index tables: where each
    rank sits, the halo axis of its sends in :data:`DIRECTIONS` order,
    and the receiver-centric halo edges of the iteration matrix."""

    gi: np.ndarray  #: grid row of each rank
    gj: np.ndarray  #: grid column of each rank
    pos_axis: np.ndarray  #: (P, 4) halo axis of rank r's p-th send
    pos_valid: np.ndarray  #: (P, 4) whether that send exists
    degree: np.ndarray  #: neighbours per rank
    recv_e: np.ndarray  #: receiver of each edge
    send_e: np.ndarray  #: sender of each edge
    recv_coeff: np.ndarray  #: receive overheads still ahead of the edge
    send_pos: np.ndarray  #: the edge's position in its sender's sends


def _grid_tables(R: int, C: int, recv_overhead: float) -> _GridTables:
    P = R * C
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
    for r in range(P):
        for i, (direction, other) in enumerate(probe.neighbors(r)):
            recv_e.append(r)
            send_e.append(other)
            # t = max(t, deliver_i) + or_ folded over the k receives
            # leaves deliver_i carrying (k - i) receive overheads.
            recv_coeff.append((degree[r] - i) * recv_overhead)
            send_pos.append(pos_of[(other, _OPPOSITE[direction])])
    ranks = np.arange(P)
    return _GridTables(
        gi=ranks // C,
        gj=ranks % C,
        pos_axis=pos_axis,
        pos_valid=pos_valid,
        degree=degree,
        recv_e=np.array(recv_e, dtype=np.int64),
        send_e=np.array(send_e, dtype=np.int64),
        recv_coeff=np.array(recv_coeff, dtype=float),
        send_pos=np.array(send_pos, dtype=np.int64),
    )


class TwoDModel:
    """The MHETA equations over 2-D tiles.

    Mirrors :class:`repro.core.model.MhetaModel`'s surface: the
    consolidated :meth:`predict` entry point (single, ``report=True``,
    ``batch=True``), a single prediction answered as a batch of one.

    The model's iteration — stage sweep, four-direction halo exchange,
    residual allreduce — applies only ``max`` and ``+ constant`` to the
    per-rank clocks on a schedule that never depends on the clock
    values, so one iteration is a max-plus linear map of the clocks.
    For a candidate layout the map factors as ``M = M_red (x) A``:
    ``A`` is the 5-point-stencil halo matrix (diagonal = the rank's
    stage + its full send sequence + its receive overheads; one
    off-diagonal entry per grid neighbour = the sender's cumulative
    send-order offset + the in-flight transfer + the receiver's
    remaining receive overheads) and ``M_red`` the constant
    reduce+broadcast matrix the 1-D kernel extracts by basis replay.  A
    whole ``(B, P)`` population builds its ``A`` from closed-form stage
    tables and the grid shape's index tables (:class:`_GridTables`, one
    per shape, held here) in a handful of array operations, then walks
    ``M`` with the 1-D kernel's steady-state walk
    (:func:`repro.core.model.steady_walk`).  The per-rank scalar loop
    it replaced is the test oracle in ``tests/model_reference.py``.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        spec: Jacobi2DSpec,
        inputs: TwoDInputs,
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.inputs = inputs
        self._timeline = SectionTimeline(inputs.micro, cluster.n_nodes)
        # Per-rank constants of the stage tables (float64 row vectors).
        micro = inputs.micro
        d0 = inputs.distribution0
        area0 = np.array(
            [d0.tile_elements(r) for r in range(cluster.n_nodes)], dtype=float
        )
        self._rate = np.asarray(inputs.compute_seconds, dtype=float) / area0
        self._mem = cluster.memory_bytes.astype(float)
        self._rseek = np.array([d.read_seek for d in micro.disks])
        self._wseek = np.array([d.write_seek for d in micro.disks])
        self._rpb = np.asarray(inputs.read_per_byte, dtype=float)
        self._wpb = np.asarray(inputs.write_per_byte, dtype=float)
        # grid shape -> its index tables, built on first use.
        self._grids: Dict[Tuple[int, int], _GridTables] = {}
        self._m_red: Optional[np.ndarray] = None

    @property
    def n_nodes(self) -> int:
        return self.cluster.n_nodes

    # -- prediction ------------------------------------------------------------

    def predict(
        self,
        distribution,
        iterations: Optional[int] = None,
        *,
        batch=False,
        report: bool = False,
        telemetry: Optional[Recorder] = None,
    ):
        """The consolidated 2-D prediction entry point.

        ``predict(dist)``
            predicted total seconds (``float``).
        ``predict(dist, report=True)``
            a :class:`TwoDReport` with per-rank clock totals.
        ``predict(dists, batch=True)``
            an ``np.ndarray`` scoring a whole candidate population in
            one vectorized pass per grid shape; entry ``b`` equals
            ``predict(dists[b])`` bit for bit.

        ``iterations`` overrides the spec's iteration count (>= 1).
        """
        if batch not in (False, True):
            raise ModelError(f"batch must be True or False, not {batch!r}")
        if iterations is not None and iterations < 1:
            raise ModelError("iterations must be >= 1")
        n_iter = iterations if iterations is not None else self.spec.iterations
        rec = as_recorder(telemetry)
        if batch:
            if report:
                raise ModelError(
                    "report=True is only available for single predictions"
                )
            dists = list(distribution)
            out = self._predict_batch(dists, n_iter)
            if rec:
                rec.count("model/predictions", len(dists))
                rec.count("model/batch_predictions")
                rec.observe("model/batch_size", len(dists))
            return out
        if report:
            result = self._report(distribution, n_iter)
        else:
            result = self._predict_one(distribution, n_iter)
        if rec:
            rec.count("model/predictions")
        return result

    def _validate(self, dist: GenBlock2D) -> None:
        if dist.n_nodes != self.cluster.n_nodes:
            raise ModelError("grid shape does not cover the cluster")
        if dist.n_rows != self.spec.n_rows or dist.n_cols != self.spec.n_cols:
            raise ModelError("distribution does not cover the array")

    def _predict_one(self, dist: GenBlock2D, n_iter: int) -> float:
        # Batch of one: bitwise equal to that candidate's batch row.
        return float(self._predict_batch([dist], n_iter)[0])

    def _rank_totals(self, dist: GenBlock2D, n_iter: int) -> np.ndarray:
        """Every rank's predicted clock total (the prediction is their
        max)."""
        self._validate(dist)
        rowc = np.asarray([dist.row_counts], dtype=np.int64)
        colc = np.asarray([dist.col_counts], dtype=np.int64)
        return self._walk(dist.grid_shape, rowc, colc, n_iter)[0]

    def _report(self, dist: GenBlock2D, n_iter: int) -> TwoDReport:
        totals = self._rank_totals(dist, n_iter)
        nodes = tuple(
            TwoDNodeReport(
                rank=r,
                grid_coords=dist.coords(r),
                tile=dist.tile(r),
                total_seconds=float(totals[r]),
            )
            for r in range(self.cluster.n_nodes)
        )
        return TwoDReport(
            distribution=dist,
            total_seconds=float(max(totals)),
            nodes=nodes,
        )

    def _predict_batch(
        self, dists: Sequence[GenBlock2D], n_iter: int
    ) -> np.ndarray:
        """Score a candidate population, one vectorized pass per grid
        shape (populations may mix shapes; results come back in input
        order)."""
        out = np.empty(len(dists))
        groups: Dict[Tuple[int, int], List[int]] = {}
        for i, d in enumerate(dists):
            self._validate(d)
            groups.setdefault(d.grid_shape, []).append(i)
        for shape, idxs in groups.items():
            rowc = np.asarray(
                [dists[i].row_counts for i in idxs], dtype=np.int64
            )
            colc = np.asarray(
                [dists[i].col_counts for i in idxs], dtype=np.int64
            )
            totals = self._walk(shape, rowc, colc, n_iter)
            out[idxs] = _max_over_ranks(totals)
        return out

    # -- the batched kernel ------------------------------------------------------

    def _grid(self, shape: Tuple[int, int]) -> _GridTables:
        grid = self._grids.get(shape)
        if grid is None:
            grid = self._grids[shape] = _grid_tables(
                *shape, self.inputs.micro.recv_overhead
            )
        return grid

    def _stage_tables(self, rows_t: np.ndarray, cols_t: np.ndarray):
        """Vectorized per-rank closed forms over ``(B, P)`` tiles:
        stage seconds plus the two per-axis halo-read costs."""
        esize = float(self.spec.element_size)
        rate, mem = self._rate, self._mem
        rseek, wseek, rpb, wpb = self._rseek, self._wseek, self._rpb, self._wpb
        area = (rows_t * cols_t).astype(float)
        compute = rate * area
        tile_bytes = area * esize
        in_core = tile_bytes <= mem
        row_bytes = cols_t.astype(float) * esize
        chunk = np.floor(mem / np.maximum(row_bytes, 1e-12))
        chunk = np.minimum(np.maximum(chunk, 1.0), np.maximum(rows_t, 1))
        n_io = np.ceil(rows_t / chunk)
        io = n_io * (rseek + wseek) + tile_bytes * (rpb + wpb)
        stage = np.where(in_core, compute, compute + io)
        ns_nbytes = cols_t * esize
        we_nbytes = rows_t * esize
        halo_ns = np.where(in_core, 0.0, rseek + ns_nbytes * rpb)
        halo_we = np.where(in_core, 0.0, rseek + we_nbytes * rpb)
        return stage, halo_ns, halo_we, ns_nbytes, we_nbytes

    def _matrices(
        self, grid: _GridTables, rowc: np.ndarray, colc: np.ndarray
    ) -> np.ndarray:
        """The composed ``(B, P, P)`` per-iteration matrices."""
        micro = self.inputs.micro
        B = rowc.shape[0]
        P = self.cluster.n_nodes
        rows_t = rowc[:, grid.gi]
        cols_t = colc[:, grid.gj]
        stage, halo_ns, halo_we, ns_nbytes, we_nbytes = self._stage_tables(
            rows_t, cols_t
        )
        # Send sequence: per position, disk halo read + send overhead,
        # accumulated in DIRECTIONS order (the emulator's fixed order).
        ns = grid.pos_axis == _NS  # (P, 4)
        step = np.where(ns, halo_ns[:, :, None], halo_we[:, :, None])
        step = np.where(grid.pos_valid, step + micro.send_overhead, 0.0)
        sendcum = np.cumsum(step, axis=2)
        nbytes = np.where(ns, ns_nbytes[:, :, None], we_nbytes[:, :, None])
        transfer = micro.fixed_latency + nbytes * micro.byte_latency
        deliver = stage[:, :, None] + sendcum + transfer
        A = np.full((B, P, P), -np.inf)
        diag = stage + sendcum[:, :, -1] + grid.degree * micro.recv_overhead
        A[:, np.arange(P), np.arange(P)] = diag
        if len(grid.recv_e):
            A[:, grid.recv_e, grid.send_e] = (
                deliver[:, grid.send_e, grid.send_pos] + grid.recv_coeff
            )
        if P == 1:
            return A
        if self._m_red is None:
            # Basis replay, cached on the timeline like the 1-D sections.
            self._m_red = self._timeline._maxplus_matrix(
                CommPattern.REDUCTION, _RESIDUAL_BYTES
            )
        return maxplus_compose_batch(
            np.broadcast_to(self._m_red, (B, P, P)), A
        )

    def _walk(
        self,
        shape: Tuple[int, int],
        rowc: np.ndarray,
        colc: np.ndarray,
        n_iter: int,
    ) -> np.ndarray:
        """Per-rank ``(B, P)`` clock totals of a validated population of
        one grid shape: ``(B, R)`` row bands, ``(B, C)`` column bands."""
        M = self._matrices(self._grid(shape), rowc, colc)
        totals, _ = steady_walk(
            [lambda clocks: (M + clocks[:, None, :]).max(axis=2)],
            n_iter,
            M.shape[:2],
        )
        return totals


def _max_over_ranks(totals: np.ndarray) -> np.ndarray:
    """``(B,)`` maxima of ``(B, P)`` rank totals by a pairwise-halving
    tree (``totals`` is walk scratch and is overwritten)."""
    P = totals.shape[1]
    if P == 1:
        return totals[:, 0].copy()
    m = P
    while m > 2:
        h = m // 2
        np.maximum(totals[:, : m - h], totals[:, h:m], out=totals[:, : m - h])
        m -= h
    return np.maximum(totals[:, 0], totals[:, 1])


def build_2d_model(
    cluster: ClusterSpec,
    spec: Jacobi2DSpec,
    d0: GenBlock2D,
    perturbation: Optional[PerturbationConfig] = None,
    measurement: Optional[MeasurementConfig] = None,
    micro: Optional[Microbenchmarks] = None,
) -> TwoDModel:
    """Instrument one 2-D iteration under ``d0`` and build the model."""
    measurement = measurement or MeasurementConfig()
    micro = micro or run_microbenchmarks(cluster)
    acc, _ = _measure(
        TwoDEmulator(cluster, spec, perturbation), d0, measurement,
        stream("2d-measurement", cluster.name, spec.n_rows, spec.n_cols),
    )
    P = cluster.n_nodes
    disks = micro.disks
    inputs = TwoDInputs(
        distribution0=d0,
        compute_seconds=tuple(
            acc.compute.get((r, _SECTION, _SWEEP), (0.0, 0))[0] for r in range(P)
        ),
        read_per_byte=tuple(
            _per_byte(
                acc.io.get((r, _GRID, "read"), _NO_IO), disks[r].read_seek,
                disks[r].read_byte_latency,
            )
            for r in range(P)
        ),
        write_per_byte=tuple(
            _per_byte(
                acc.io.get((r, _GRID, "write"), _NO_IO), disks[r].write_seek,
                disks[r].write_byte_latency,
            )
            for r in range(P)
        ),
        micro=micro,
    )
    return TwoDModel(cluster, spec, inputs)
