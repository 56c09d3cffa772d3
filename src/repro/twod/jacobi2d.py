"""2-D Jacobi: emulator and MHETA-style model for GenBlock2D layouts.

The 1-D machinery distributes rows only; a 2-D stencil decomposition
owns a ``rows x cols`` tile, exchanges four halos per iteration (north/
south rows, east/west columns) and reduces a residual.  This module
implements that workload twice, exactly like the 1-D core:

* :class:`TwoDEmulator` — a discrete-event execution on the same engine,
  disk model and perturbation layer as :mod:`repro.sim`;
* :class:`TwoDModel` — the analytical mirror, fed by one instrumented
  iteration plus the standard microbenchmarks.

Under ideal conditions (perturbations off, perfect timers) the two agree
exactly, extending the reproduction's central invariant to 2-D — the
support the paper's Section 5.1 asserts exists before declining to use
it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.comm import SectionTimeline
from repro.core.model import KERNELS
from repro.exceptions import ModelError, SimulationError
from repro.instrument.collect import MeasurementConfig
from repro.instrument.microbench import Microbenchmarks, run_microbenchmarks
from repro.obs import Recorder, as_recorder
from repro.sim.disk import DiskModel
from repro.sim.engine import Delay, Engine, Recv, Send
from repro.sim.perturbation import PerturbationConfig, PerturbationModel
from repro.sim.steady import (
    FastForwardPolicy,
    extrapolate_ends,
    steady_deltas,
    supports_fast_forward,
)
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


class TwoDEmulator:
    """Discrete-event execution of 2-D Jacobi under a GenBlock2D."""

    def __init__(
        self,
        cluster: ClusterSpec,
        spec: Jacobi2DSpec,
        perturbation: Optional[PerturbationConfig] = None,
        dynamics=None,
    ) -> None:
        from repro.sim.executor import _resolve_dynamics

        self.cluster = cluster
        self.spec = spec
        self.perturbation = (
            perturbation if perturbation is not None else PerturbationConfig()
        )
        #: Resolved cluster dynamics (``None`` = static), following the
        #: 1-D emulator: ``None`` honours ``cluster.dynamics``, an
        #: explicit spec overrides it, ``False`` forces static.
        self.dynamics = _resolve_dynamics(cluster, dynamics)

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
        fast_forward: Optional[bool] = None,
        observer: Optional["_TwoDCollector"] = None,
        telemetry: Optional[Recorder] = None,
        iteration_offset: int = 0,
        policy: Optional[FastForwardPolicy] = None,
    ) -> float:
        """Total emulated seconds of ``n_iter`` 2-D Jacobi iterations.

        The keyword surface mirrors :meth:`ClusterEmulator.run`
        (``io_mode``, ``observer``, ``iteration_offset``); the 2-D
        kernel streams synchronously, so ``io_mode="prefetch"`` is
        rejected.

        Fast-forward follows the 1-D emulator exactly: structurally
        eligible runs (:func:`supports_fast_forward` — an observer or
        attached cluster dynamics disqualify) simulate only the probe
        window, and if every rank's iteration-end deltas have settled
        the rest is extrapolated closed-form; anything else falls back
        to the full event loop, bit for bit.
        """
        from repro.sim.executor import _resolve_io_mode

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
        if iteration_offset < 0:
            raise SimulationError(
                f"iteration_offset must be >= 0, got {iteration_offset}"
            )
        n_iter = iterations if iterations is not None else self.spec.iterations
        if fast_forward is None:
            from repro.sim.executor import fast_forward_default

            fast_forward = fast_forward_default()
        policy = policy if policy is not None else FastForwardPolicy()
        timeline = None
        if self.dynamics is not None:
            timeline = self.dynamics.compile(
                self.cluster.n_nodes, n_iter, iteration_offset
            )
        rec = as_recorder(telemetry)
        if (
            fast_forward
            and iteration_offset == 0
            and n_iter > policy.probe_iterations
            and supports_fast_forward(
                self.spec,
                self.perturbation,
                observer=observer,
                instrumented=instr,
                dynamics=self.dynamics,
            )
        ):
            ends: List[List[float]] = [[] for _ in range(dist.n_nodes)]
            with rec.span("sim/twod/run"):
                self._engine_run(
                    dist, policy.probe_iterations, instr,
                    observer, ends,
                )
                deltas = steady_deltas(ends, policy)
                if deltas is not None:
                    seconds = max(
                        extrapolate_ends(ends[r], deltas[r], n_iter)[-1]
                        for r in range(dist.n_nodes)
                    )
                    if rec:
                        rec.count("sim/twod/runs")
                        rec.count("sim/twod/fast_forwards")
                        rec.set("sim/twod/nodes", dist.n_nodes)
                        rec.set("sim/twod/iterations", n_iter)
                        rec.observe("sim/twod/seconds", seconds)
                    return seconds
                # Non-converging probe: fall back to an untouched full
                # simulation (probe state is discarded entirely).
                seconds = self._engine_run(
                    dist, n_iter, instr, observer, None,
                    timeline=timeline, offset=iteration_offset,
                )
        else:
            with rec.span("sim/twod/run"):
                seconds = self._engine_run(
                    dist, n_iter, instr, observer, None,
                    timeline=timeline, offset=iteration_offset,
                )
        if rec:
            rec.count("sim/twod/runs")
            rec.set("sim/twod/nodes", dist.n_nodes)
            rec.set("sim/twod/iterations", n_iter)
            rec.observe("sim/twod/seconds", seconds)
        return seconds

    def _engine_run(self, dist, n_iter, instrumented, collector, ends,
                    timeline=None, offset=0):
        engine = Engine()
        for rank in range(dist.n_nodes):
            engine.add_process(
                self._node(rank, dist, n_iter, instrumented, collector, ends,
                           timeline=timeline, offset=offset),
                node=rank,
            )
        return engine.run()

    def _node(self, rank, dist, n_iter, instrumented, collector, ends=None,
              timeline=None, offset=0):
        spec = self.spec
        node = self.cluster[rank]
        net = self.cluster.network
        rows, cols = dist.tile(rank)
        in_core, chunk_rows = self._block_rows(rank, dist, instrumented)
        row_bytes = cols * spec.element_size
        tile_bytes = spec.tile_bytes(rows, cols)
        disk = DiskModel(
            node,
            resident_bytes=(tile_bytes if in_core else chunk_rows * row_bytes),
            cache_enabled=self.perturbation.os_read_cache,
        )
        if not in_core:
            disk.register_variable("grid2d", tile_bytes)
        perturb = PerturbationModel(
            self.perturbation,
            run_labels=(
                "2d",
                self.cluster.name,
                f"{dist.row_counts}x{dist.col_counts}",
                rank,
                "instr" if instrumented else "run",
            ),
        )
        now = 0.0

        def cpu(seconds):
            nonlocal now
            if seconds > 0:
                now = float((yield Delay(seconds)))

        neighbors = dist.neighbors(rank)
        for local_it in range(n_iter):
            it = local_it + offset
            if timeline is not None:
                dyn_compute = timeline.compute_multiplier(rank, it)
                disk.slowdown = timeline.disk_slowdown(rank, it)
            else:
                dyn_compute = 1.0
            # -- stage: sweep the tile (streaming if out of core) ----------
            work = rows * cols * spec.work_per_element
            nominal = node.compute_seconds(work)
            ws = chunk_rows * row_bytes if not in_core else tile_bytes
            compute_total = perturb.perturb_compute(node, nominal, ws)
            if dyn_compute != 1.0:
                compute_total *= dyn_compute
            compute_done = 0.0
            if in_core:
                start = now
                yield from cpu(compute_total)
                compute_done = compute_total
                if collector is not None:
                    collector.on_compute(rank, it, compute_total)
            else:
                remaining = rows
                while remaining > 0:
                    take = min(chunk_rows, remaining)
                    nbytes = take * row_bytes
                    op = disk.submit_read(now, "grid2d", nbytes)
                    read_dur = op.done - now
                    yield from cpu(read_dur)
                    if collector is not None:
                        collector.on_read(rank, read_dur, nbytes)
                    share = compute_total * take / rows
                    yield from cpu(share)
                    compute_done += share
                    if collector is not None:
                        collector.on_compute(rank, it, share)
                    wop = disk.submit_write(now, "grid2d", nbytes)
                    write_dur = wop.done - now
                    yield from cpu(write_dur)
                    if collector is not None:
                        collector.on_write(rank, write_dur, nbytes)
                    remaining -= take
            # -- halo exchange (sends in fixed order, then receives) -------
            for direction, other in neighbors:
                nbytes = dist.halo_elements(rank, direction) * spec.element_size
                if not in_core:
                    op = disk.submit_read(now, "grid2d", nbytes)
                    dur = op.done - now
                    yield from cpu(dur)
                    if collector is not None:
                        collector.on_read(rank, dur, nbytes)
                yield from cpu(net.send_overhead)
                yield Send(
                    other,
                    f"{it}:halo:{direction}",
                    transfer=net.transfer_seconds(nbytes),
                )
            for direction, other in neighbors:
                result = yield Recv(other, f"{it}:halo:{_OPPOSITE[direction]}")
                now = float(result)
                yield from cpu(net.recv_overhead)
            # -- residual allreduce (binomial reduce + broadcast) -----------
            yield from self._allreduce(rank, dist.n_nodes, it, net, cpu)
            if ends is not None:
                ends[rank].append(now)

    def _allreduce(self, rank, P, it, net, cpu):
        nbytes = 8.0
        mask = 1
        while mask < P:
            if rank & mask:
                yield from cpu(net.send_overhead)
                yield Send(
                    rank - mask,
                    f"{it}:red:{mask}",
                    transfer=net.transfer_seconds(nbytes),
                )
                break
            partner = rank | mask
            if partner < P:
                result = yield Recv(partner, f"{it}:red:{mask}")
                yield from cpu(net.recv_overhead)
            mask <<= 1
        pot = 1
        while pot < P:
            pot <<= 1
        mask = pot >> 1
        while mask > 0:
            if rank % (2 * mask) == 0:
                if rank + mask < P:
                    yield from cpu(net.send_overhead)
                    yield Send(
                        rank + mask,
                        f"{it}:bc:{mask}",
                        transfer=net.transfer_seconds(nbytes),
                    )
            elif rank % (2 * mask) == mask:
                result = yield Recv(rank - mask, f"{it}:bc:{mask}")
                yield from cpu(net.recv_overhead)
            mask >>= 1


class _TwoDCollector:
    """Instrumented-iteration measurements for the 2-D model."""

    def __init__(self, measurement: MeasurementConfig, rng) -> None:
        self._m = measurement
        self._rng = rng
        self.compute: Dict[int, float] = defaultdict(float)
        self.read_seconds: Dict[int, float] = defaultdict(float)
        self.read_bytes: Dict[int, float] = defaultdict(float)
        self.read_ops: Dict[int, int] = defaultdict(int)
        self.write_seconds: Dict[int, float] = defaultdict(float)
        self.write_bytes: Dict[int, float] = defaultdict(float)
        self.write_ops: Dict[int, int] = defaultdict(int)

    def _measured(self, duration: float) -> float:
        rel = self._m.relative_bias + self._rng.normal(
            0.0, self._m.relative_sigma
        )
        return duration * (1.0 + rel) + self._m.timer_overhead

    def on_compute(self, rank, it, duration):
        self.compute[rank] += self._measured(duration)

    def on_read(self, rank, duration, nbytes):
        self.read_seconds[rank] += self._measured(duration)
        self.read_bytes[rank] += nbytes
        self.read_ops[rank] += 1

    def on_write(self, rank, duration, nbytes):
        self.write_seconds[rank] += self._measured(duration)
        self.write_bytes[rank] += nbytes
        self.write_ops[rank] += 1


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


class TwoDModel:
    """The MHETA equations over 2-D tiles.

    Mirrors :class:`repro.core.model.MhetaModel`'s surface: the
    consolidated :meth:`predict` entry point (scalar, ``report=True``,
    ``batch=True``/``"serial"``) and the ``kernel="numpy"|"scalar"``
    knob.  The scalar kernel is the per-rank reference loop; the numpy
    kernel scores whole candidate populations through the max-plus
    iteration matrices of :mod:`repro.twod.plan2d`, one private plan
    per grid shape.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        spec: Jacobi2DSpec,
        inputs: TwoDInputs,
        *,
        kernel: str = "numpy",
    ) -> None:
        if kernel not in KERNELS:
            raise ModelError(
                f"unknown kernel {kernel!r}; choose from {KERNELS}"
            )
        self.cluster = cluster
        self.spec = spec
        self.inputs = inputs
        self.kernel = kernel
        self._timeline = SectionTimeline(inputs.micro, cluster.n_nodes)
        # grid shape -> this model's evaluation plan for that shape.
        self._plans: Dict[Tuple[int, int], object] = {}

    @property
    def n_nodes(self) -> int:
        return self.cluster.n_nodes

    # -- evaluation plans -------------------------------------------------------

    def ensure_plan(self, grid_shape: Optional[Tuple[int, int]] = None):
        """Resolve the evaluation plan for ``grid_shape`` (default: the
        instrumented baseline's shape), building it on first use."""
        if grid_shape is None:
            grid_shape = self.inputs.distribution0.grid_shape
        plan = self._plans.get(grid_shape)
        if plan is None:
            from repro.twod.plan2d import EvaluationPlan2D

            plan = EvaluationPlan2D(self, grid_shape)
            self._plans[grid_shape] = plan
        return plan

    def release_plans(self) -> None:
        """Drop this model's plans (they rebuild lazily on next use)."""
        self._plans = {}

    def __getstate__(self) -> dict:
        # Plans hold scratch and memo buffers; workers rebuild them
        # lazily after unpickling.
        state = self.__dict__.copy()
        state["_plans"] = {}
        return state

    # -- per-node stage time ----------------------------------------------------

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
            one vectorized pass per grid shape (``<= 1e-12`` relative
            vs. the serial path).
        ``predict(dists, batch="serial")``
            a ``List[float]`` from the per-candidate loop.
        """
        rec = as_recorder(telemetry)
        if batch:
            if report:
                raise ModelError(
                    "report=True is only available for single predictions"
                )
            dists = list(distribution)
            if batch == "serial":
                out = [self._predict_one(d, iterations) for d in dists]
            else:
                out = self._predict_batch(dists, iterations)
            if rec:
                rec.count("model/predictions", len(dists))
                rec.count("model/batch_predictions")
                rec.observe("model/batch_size", len(dists))
            return out
        if report:
            result = self._report(distribution, iterations)
        else:
            result = self._predict_one(distribution, iterations)
        if rec:
            rec.count("model/predictions")
        return result

    def _validate(self, dist: GenBlock2D) -> None:
        if dist.n_nodes != self.cluster.n_nodes:
            raise ModelError("grid shape does not cover the cluster")

    def _predict_one(
        self, dist: GenBlock2D, iterations: Optional[int]
    ) -> float:
        if self.kernel == "scalar":
            return max(self._scalar_totals(dist, iterations))
        # Batch of one: bitwise equal to that candidate's batch row.
        return float(self._predict_batch([dist], iterations)[0])

    def _report(
        self, dist: GenBlock2D, iterations: Optional[int]
    ) -> TwoDReport:
        if self.kernel == "scalar":
            totals = self._scalar_totals(dist, iterations)
        else:
            self._validate(dist)
            n_iter = (
                iterations if iterations is not None else self.spec.iterations
            )
            plan = self.ensure_plan(dist.grid_shape)
            rowc = np.asarray([dist.row_counts], dtype=np.int64)
            colc = np.asarray([dist.col_counts], dtype=np.int64)
            totals = plan.execute(rowc, colc, n_iter, reduce=False)[0]
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
        self,
        dists: Sequence[GenBlock2D],
        iterations: Optional[int] = None,
    ) -> np.ndarray:
        """Score a candidate population, one vectorized pass per grid
        shape (populations may mix shapes; results come back in input
        order)."""
        n_iter = iterations if iterations is not None else self.spec.iterations
        out = np.empty(len(dists))
        if self.kernel == "scalar":
            for i, d in enumerate(dists):
                out[i] = max(self._scalar_totals(d, iterations))
            return out
        groups: Dict[Tuple[int, int], List[int]] = {}
        for i, d in enumerate(dists):
            self._validate(d)
            groups.setdefault(d.grid_shape, []).append(i)
        for shape, idxs in groups.items():
            plan = self.ensure_plan(shape)
            rowc = np.asarray(
                [dists[i].row_counts for i in idxs], dtype=np.int64
            )
            colc = np.asarray(
                [dists[i].col_counts for i in idxs], dtype=np.int64
            )
            out[idxs] = plan.execute(rowc, colc, n_iter)
        return out

    def _scalar_totals(
        self, dist: GenBlock2D, iterations: Optional[int] = None
    ) -> List[float]:
        """The per-rank reference loop: every rank's predicted clock
        total (the scalar prediction is their max)."""
        self._validate(dist)
        n_iter = iterations if iterations is not None else self.spec.iterations
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
        from repro.program.sections import CommPattern

        return self._timeline.advance(
            CommPattern.REDUCTION,
            after_halo,
            [[0.0]] * P,
            8.0,
            [0.0] * P,
        )


def build_2d_model(
    cluster: ClusterSpec,
    spec: Jacobi2DSpec,
    d0: GenBlock2D,
    perturbation: Optional[PerturbationConfig] = None,
    measurement: Optional[MeasurementConfig] = None,
    micro: Optional[Microbenchmarks] = None,
    kernel: str = "numpy",
) -> TwoDModel:
    """Instrument one 2-D iteration under ``d0`` and build the model."""
    measurement = measurement or MeasurementConfig()
    micro = micro or run_microbenchmarks(cluster)
    rng = stream("2d-measurement", cluster.name, spec.n_rows, spec.n_cols)
    collector = _TwoDCollector(measurement, rng)
    emulator = TwoDEmulator(cluster, spec, perturbation)
    emulator.run(d0, iterations=1, io_mode="instrumented", observer=collector)
    P = cluster.n_nodes
    read_pb = []
    write_pb = []
    for rank in range(P):
        disk = micro.disks[rank]
        rb = collector.read_bytes[rank]
        wb = collector.write_bytes[rank]
        read_pb.append(
            max(collector.read_seconds[rank] - collector.read_ops[rank] * disk.read_seek, 0.0) / rb
            if rb > 0
            else disk.read_byte_latency
        )
        write_pb.append(
            max(collector.write_seconds[rank] - collector.write_ops[rank] * disk.write_seek, 0.0) / wb
            if wb > 0
            else disk.write_byte_latency
        )
    inputs = TwoDInputs(
        distribution0=d0,
        compute_seconds=tuple(collector.compute[r] for r in range(P)),
        read_per_byte=tuple(read_pb),
        write_per_byte=tuple(write_pb),
        micro=micro,
    )
    return TwoDModel(cluster, spec, inputs, kernel=kernel)
