"""MhetaModel: the assembled execution-time predictor.

``predict`` walks the program's parallel sections with per-node clocks:
stage times come from :class:`~repro.core.io_model.StageTimeModel`
(measured computation rescaled to the candidate distribution, plus
Equation 1/2 I/O from the out-of-core oracle), and section-closing
communication comes from :class:`~repro.core.comm.SectionTimeline`
(Equation 3/4 waits, reduction, allgather).  The predicted application
time is the slowest node's clock after the final iteration.

One batched numpy path produces those clocks, scoring a whole
candidate population at once: every distinct ``(node, rows)`` table of a
call is built in one batched pass of closed-form array expressions over
``(pairs, tiles)`` (:meth:`StageTimeModel.section_tile_times`), sections
become ``(B, P, P)`` max-plus matrices
(:meth:`SectionTimeline.compile_matrix_batch`) and :func:`steady_walk`
advances ``(B, P)`` clocks.  A single prediction is a batch of one, so
``predict(d)`` equals its row of any batch bit for bit.  The original
per-tile, per-stage, per-block Python loops live on only as the test
oracle ``tests/model_reference.py``, which this path matches to rounding
(<= 1e-12 relative, pinned by ``tests/test_kernel_equivalence.py``).

The per-node stage tables depend only on ``(node, rows)`` — not on what
the *other* nodes were assigned — so a call builds each distinct pair
of its batch once and keeps nothing between calls: a cold search reuses
too few pairs across calls for a store to pay for itself.

The model deliberately knows nothing about relative CPU powers, disk
bandwidths, page caches, or per-row work variation: everything
hardware- or application-specific enters through the measured
``MhetaInputs``, exactly as in the paper.  Only node *memory capacities*
are read from the cluster description, because the out-of-core heuristic
needs them (Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.comm import SectionTimeline, maxplus_compose_batch
from repro.core.io_model import StageTimeModel
from repro.core.oracle import OutOfCoreOracle
from repro.core.report import (
    NodePrediction,
    PredictionReport,
    SectionBreakdown,
)
from repro.distribution.genblock import GenBlock
from repro.exceptions import ModelError
from repro.instrument.inputs import MhetaInputs
from repro.obs import Recorder
from repro.program.sections import CommPattern, ParallelSection
from repro.program.structure import ProgramStructure

__all__ = [
    "MhetaModel",
    "steady_walk",
]


def _pattern_message_counts(
    pattern: CommPattern, n_nodes: int, tiles: int
) -> Tuple[List[int], List[int]]:
    """Per-node ``(sends, recvs)`` message counts for one section's
    closing communication, per iteration.

    Every pattern's schedule is data-independent, so the counts are a
    pure function of ``(pattern, P, tiles)``.  The reduction replays the
    binomial reduce-to-0 + broadcast schedule of
    :meth:`SectionTimeline._reduce_broadcast` (counting posts instead of
    advancing clocks); the others have closed forms.  Used by the
    telemetry phase breakdown to charge ``send_overhead``/
    ``recv_overhead`` seconds to the node that pays them.
    """
    P = n_nodes
    sends = [0] * P
    recvs = [0] * P
    if P <= 1 or pattern is CommPattern.NONE:
        return sends, recvs
    if pattern is CommPattern.NEAREST_NEIGHBOR:
        for n in range(P):
            neighbours = (1 if n > 0 else 0) + (1 if n < P - 1 else 0)
            sends[n] = neighbours
            recvs[n] = neighbours
        return sends, recvs
    if pattern is CommPattern.PIPELINE:
        for n in range(P):
            if n < P - 1:
                sends[n] = tiles
            if n > 0:
                recvs[n] = tiles
        return sends, recvs
    if pattern is CommPattern.ALLGATHER:
        for n in range(P):
            sends[n] = P - 1
            recvs[n] = P - 1
        return sends, recvs
    if pattern is CommPattern.REDUCTION:
        exited = [False] * P
        mask = 1
        while mask < P:
            for n in range(P):
                if not exited[n] and (n & mask):
                    sends[n] += 1
                    exited[n] = True
            for n in range(P):
                if not exited[n] and not (n & mask) and (n | mask) < P:
                    recvs[n] += 1
            mask <<= 1
        pot = 1
        while pot < P:
            pot <<= 1
        mask = pot >> 1
        while mask > 0:
            for n in range(P):
                if n % (2 * mask) == 0 and n + mask < P:
                    sends[n] += 1
                elif n % (2 * mask) == mask:
                    recvs[n] += 1
            mask >>= 1
        return sends, recvs
    raise ModelError(f"unknown communication pattern: {pattern}")


#: Convergence tolerances of every steady-state walk (1-D, 2-D and the
#: scalar test oracles): an increment vector has repeated once each
#: component is within ``_ATOL + _RTOL * |previous|`` of the previous
#: iteration's.
_ATOL = 1e-12
_RTOL = 1e-9


def steady_walk(
    ops: Sequence[Callable[[np.ndarray], np.ndarray]],
    n_iter: int,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Walk ``(B, P)`` clocks, zero at entry, through one iteration's
    fused ``ops`` until each candidate's increment vector repeats, then
    extrapolate linearly.

    Candidates converge individually, by the scalar reference walk's
    rule and tolerances: the moment candidate ``b``'s increment
    repeats, its totals ``last + steady * (iterations left)`` are
    frozen while the rest keep walking.  Frozen rows keep advancing (max-plus ops are
    stable), but their recorded result no longer changes, so a
    candidate's result does not depend on its batch.  While nothing has
    frozen, a largest increment change within ``_ATOL`` converges every
    candidate at this same point, so the walk returns at once.  A
    candidate that never converges reports its final clocks.

    Returns ``(totals, steady)``: the per-node predicted totals and the
    steady-iteration increments (the clocks themselves when only one
    iteration ran).
    """
    clocks = np.zeros(shape)
    totals = np.empty(shape)
    steady = np.empty(shape)
    active = np.ones(shape[0], dtype=bool)
    frozen_any = False
    last = prev_steady = None
    simulate = 0
    while simulate < n_iter:
        for op in ops:
            clocks = op(clocks)
        second_last, last = last, clocks
        simulate += 1
        if second_last is None:
            steady_now = last
            continue
        steady_now = last - second_last
        if prev_steady is not None:
            diff = np.abs(steady_now - prev_steady)
            left = n_iter - simulate
            if not frozen_any and diff.max() <= _ATOL:
                return last + steady_now * left, steady_now
            newly = active & (
                diff <= _ATOL + _RTOL * np.abs(prev_steady)
            ).all(axis=1)
            if newly.any():
                frozen_any = True
                totals[newly] = last[newly] + steady_now[newly] * left
                steady[newly] = steady_now[newly]
                active[newly] = False
                if not active.any():
                    return totals, steady
        prev_steady = steady_now
    totals[active] = last[active]
    steady[active] = steady_now[active]
    return totals, steady


@dataclass(frozen=True)
class _SectionTables:
    """One section's evaluation tables for one distribution, for the
    report: ``(P, tiles)`` per-node, per-tile stage times (total and
    compute-only) and the ``(P,)`` per-node message source-read cost."""

    section: ParallelSection
    tile_totals: np.ndarray
    tile_compute: np.ndarray
    source_read: np.ndarray


class MhetaModel:
    """Predict execution times for candidate distributions.

    Parameters
    ----------
    program, memories, inputs:
        As in the paper: the application structure, the per-node memory
        capacities (or the cluster they come from), and the measured
        internal MHETA file.
    """

    def __init__(
        self,
        program: ProgramStructure,
        memories: Union[ClusterSpec, Sequence[int]],
        inputs: MhetaInputs,
    ) -> None:
        if isinstance(memories, ClusterSpec):
            memory_list = [n.memory_bytes for n in memories.nodes]
        else:
            memory_list = [int(m) for m in memories]
        if len(memory_list) != inputs.n_nodes:
            raise ModelError(
                "memory capacities and instrumented inputs disagree on the "
                f"node count ({len(memory_list)} vs {inputs.n_nodes})"
            )
        if inputs.program_name != program.name:
            raise ModelError(
                f"inputs were collected for {inputs.program_name!r}, "
                f"not {program.name!r}"
            )
        self.program = program
        self.inputs = inputs
        self.oracle = OutOfCoreOracle(program, memory_list)
        self.stage_model = StageTimeModel(program, inputs)
        self.timeline = SectionTimeline(inputs.micro, len(memory_list))
        # Tile-axis layout of the flattened per-node tables: section
        # ``si`` owns columns ``offsets[si]:offsets[si + 1]``.
        tiles = [s.tiles for s in program.sections]
        self._tile_offsets = [0]
        for t in tiles:
            self._tile_offsets.append(self._tile_offsets[-1] + t)
        self._total_tiles = self._tile_offsets[-1]

    @property
    def n_nodes(self) -> int:
        return self.oracle.n_nodes

    # -- prediction -------------------------------------------------------------

    def predict(
        self,
        distribution,
        iterations: Optional[int] = None,
        *,
        batch: bool = False,
        report: bool = False,
        telemetry: Optional[Recorder] = None,
    ):
        """The consolidated prediction entry point.

        ``predict(dist)``
            predicted total seconds (``float``) — the search hot path.
        ``predict(dist, report=True)``
            full :class:`PredictionReport` with per-node, per-section
            breakdowns.
        ``predict(dists, batch=True)``
            an ``np.ndarray`` scoring a whole candidate population in
            one vectorized pass.  A single prediction is a batch of
            one, so entry ``b`` equals ``predict(dists[b])`` bit for
            bit.

        ``iterations`` overrides the program's iteration count (>= 1).
        ``telemetry`` takes a :class:`repro.obs.Recorder`; with
        ``report=True`` it additionally records the per-node phase
        breakdown (comp / sync-I/O / prefetch-I/O / send+recv overhead /
        blocked) whose components sum exactly to each node's predicted
        total.  ``telemetry=None`` (default) costs one truthiness check.
        """
        if batch not in (False, True):
            raise ModelError(f"batch must be True or False, not {batch!r}")
        if iterations is not None and iterations < 1:
            raise ModelError("iterations must be >= 1")
        n_iter = (
            iterations if iterations is not None else self.program.iterations
        )
        if batch:
            if report:
                raise ModelError(
                    "report=True is only available for single predictions"
                )
            dists = list(distribution)
            out = self._predict_batch(dists, n_iter)
            if telemetry:
                telemetry.count("model/batch_predictions")
                telemetry.observe("model/batch_size", len(dists))
                telemetry.count("model/predictions", len(dists))
            return out
        result = self._predict(
            distribution, n_iter, want_report=report, telemetry=telemetry
        )
        if telemetry:
            telemetry.count("model/predictions")
        return result

    def _check(self, distribution: GenBlock) -> None:
        if distribution.n_nodes != self.n_nodes:
            raise ModelError("distribution does not match the model's nodes")
        if distribution.n_rows != self.program.n_rows:
            raise ModelError("distribution does not cover the program's rows")

    def _batch_counts(self, dists: Sequence[GenBlock]) -> np.ndarray:
        """Stack and validate candidate row counts as ``(B, P)`` int64.

        Only on failure does it fall back to the per-candidate
        :meth:`_check` loop, for its error messages."""
        P = self.n_nodes
        n_rows = self.program.n_rows
        counts = np.empty((len(dists), P), dtype=np.int64)
        try:
            # Row-assigning each candidate's cached int64 mirror is the
            # cheapest exact stacking; the explicit length check (a
            # length-1 array would broadcast silently) and the cached
            # row total validate each candidate in-loop.  Any mismatch
            # or a foreign distribution type falls back to the loop.
            for i, d in enumerate(dists):
                mirror = d.counts_np
                if len(mirror) != P or d._n_rows != n_rows:
                    raise ValueError
                counts[i] = mirror
            return counts
        except (ValueError, TypeError, AttributeError):
            pass
        for d in dists:
            self._check(d)
        return np.array([d.counts for d in dists], dtype=np.int64)

    def _predict_batch(
        self, distributions: Sequence[GenBlock], n_iter: int
    ) -> np.ndarray:
        """Score a whole candidate population in one :meth:`_evaluate`
        pass."""
        dists = list(distributions)
        if not dists:
            return np.empty(0)
        return self._evaluate(self._batch_counts(dists), n_iter)[1].max(
            axis=1
        )

    def _evaluate(
        self, counts: np.ndarray, n_iter: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batched evaluation of a validated ``(B, P)`` row-count
        matrix.

        Each distinct ``(node, rows)`` pair across the *whole batch* is
        built once, all of them in one batched table pass
        (:meth:`_build_tables`); then every section is evaluated over
        the candidate axis in a single array pass.
        Candidates never mix (no reduction crosses the batch axis), so a
        candidate's row does not depend on the rest of its batch.

        Returns ``(tables, totals, steady)``: the ``(B, P, columns)``
        per-node tables (layout in :meth:`_build_tables`), and the
        ``(B, P)`` per-node predicted totals and steady increments.
        """
        B, P = counts.shape
        # Each distinct (node, rows) pair of the batch, keyed as one int.
        stride = self.program.n_rows + 1
        keys, inverse = np.unique(
            counts + stride * np.arange(P), return_inverse=True
        )
        flat = self._build_tables(keys // stride, keys % stride)[
            inverse.reshape(B, P)
        ]
        T = self._total_tiles
        tile_totals = flat[:, :, :T]
        source = flat[:, :, 2 * T:]
        if self.program.iteration_profile is None:
            totals, steady = steady_walk(
                self._batch_ops(tile_totals, source), n_iter, (B, P)
            )
            return flat, totals, steady
        # Non-uniform iterations (paper Section 3.1's deferred case):
        # each iteration's ops scale the computation share, and every
        # iteration is walked explicitly — no steady state exists to
        # extrapolate.
        tile_compute = flat[:, :, T:2 * T]
        clocks = np.zeros((B, P))
        for scale in self._iteration_scales(n_iter):
            previous = clocks
            for op in self._batch_ops(
                tile_totals + (scale - 1.0) * tile_compute, source
            ):
                clocks = op(clocks)
        return flat, clocks, clocks - previous

    def _batch_ops(
        self, tile_totals: np.ndarray, source: np.ndarray
    ) -> List[Callable[[np.ndarray], np.ndarray]]:
        """One iteration's section advances over ``(B, P)`` clocks.

        ``tile_totals`` is the ``(B, P, total_tiles)`` stage-time table
        and ``source`` the ``(B, P, sections)`` message source-read
        costs.  Runs of consecutive max-plus section matrices compose
        into a single matrix (:func:`maxplus_compose_batch`), so an
        all-matrix program — any mix of NONE / nearest-neighbour /
        reduction / allgather sections — walks each iteration with one
        ``(A + clocks).max``.  Pipeline sections stay replay closures,
        splitting the composition.
        """
        timeline = self.timeline
        offsets = self._tile_offsets

        def matrix_op(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
            return lambda clocks: (A + clocks[:, None, :]).max(axis=2)

        ops: List[Callable[[np.ndarray], np.ndarray]] = []
        pending: Optional[np.ndarray] = None
        for si, section in enumerate(self.program.sections):
            lo, hi = offsets[si], offsets[si + 1]
            section_totals = tile_totals[:, :, lo:hi]
            tile_sums = (
                section_totals[:, :, 0]
                if hi - lo == 1
                else section_totals.sum(axis=2)
            )
            matrix = timeline.compile_matrix_batch(
                section.comm.pattern,
                section.comm.message_bytes,
                source[:, :, si],
                tile_sums,
            )
            if matrix is not None:
                pending = (
                    matrix
                    if pending is None
                    else maxplus_compose_batch(matrix, pending)
                )
            else:
                if pending is not None:
                    ops.append(matrix_op(pending))
                    pending = None
                ops.append(
                    timeline.compile_advance_batch(
                        section.comm.pattern,
                        section_totals,
                        section.comm.message_bytes,
                    )
                )
        if pending is not None:
            ops.append(matrix_op(pending))
        return ops

    def _iteration_scales(self, n_iter: int) -> List[float]:
        """Per-iteration computation scale of an iteration-profile
        program (paper Section 3.1's deferred case): the instrumented
        iteration measured computation at the profile's first
        multiplier, and each iteration scales it by its own."""
        program = self.program
        m0 = program.iteration_multiplier(0)
        return [
            (
                program.iteration_multiplier(it)
                if it < program.iterations
                else 1.0
            )
            / m0
            for it in range(n_iter)
        ]

    # -- table construction -----------------------------------------------------

    def _build_tables(self, nodes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Stage-time tables of ``K`` (node, rows) pairs in one batched
        pass, as ``(K, 2 * total_tiles + sections)`` rows laid out
        ``[totals | computes | source_read]`` (sections packed along the
        flat tile axes, layout in ``self._tile_offsets``).

        Pairs are grouped by their in-core bitmask: within a group every
        stage has one I/O formula, evaluated in closed form over the
        group's ``(pairs, tiles)`` grid.  Every operation is elementwise
        over pairs, so a pair's tables do not depend on its batch.
        """
        arrays = self.stage_model._node_arrays()
        placed = self.oracle.plan_arrays(nodes, rows)
        names = placed.names
        masks = (
            (~placed.in_core).astype(np.int64)
            << np.arange(len(names))[:, None]
        ).sum(axis=0)
        T, offsets = self._total_tiles, self._tile_offsets
        out = np.empty((len(rows), 2 * T + len(self.program.sections)))
        for mask in np.unique(masks).tolist():
            sel = np.flatnonzero(masks == mask)
            g_nodes = nodes[sel]
            ooc = [j for j in range(len(names)) if mask >> j & 1]
            blocks = {names[j]: placed.block_rows[j, sel] for j in ooc}
            for si, section in enumerate(self.program.sections):
                lo, hi = offsets[si], offsets[si + 1]
                (out[sel, lo:hi], out[sel, T + lo:T + hi]) = (
                    self.stage_model.section_tile_times(
                        g_nodes, rows[sel], section, blocks
                    )
                )
                # Disk read charged for materialising one outgoing
                # neighbour message from an out-of-core source.
                src = section.comm.source_variable
                out[sel, 2 * T + si] = (
                    arrays["read_seek"][g_nodes]
                    + section.comm.message_bytes
                    * arrays["read_pb"][src][g_nodes]
                    if src in blocks
                    and section.comm.pattern is CommPattern.NEAREST_NEIGHBOR
                    else 0.0
                )
        return out

    def _table_views(self, per_node: np.ndarray) -> List[_SectionTables]:
        """Per-section views of one candidate's stacked ``(P, columns)``
        tables, for the report."""
        T, offsets = self._total_tiles, self._tile_offsets
        return [
            _SectionTables(
                section=section,
                tile_totals=per_node[:, lo:hi],
                tile_compute=per_node[:, T + lo:T + hi],
                source_read=per_node[:, 2 * T + si],
            )
            for si, (section, lo, hi) in enumerate(
                zip(self.program.sections, offsets, offsets[1:])
            )
        ]

    # -- assembly ---------------------------------------------------------------

    def _predict(
        self,
        distribution: GenBlock,
        n_iter: int,
        want_report: bool,
        telemetry: Optional[Recorder] = None,
    ):
        # A single prediction is a batch of one.
        flat, totals, steady = self._evaluate(
            self._batch_counts([distribution]), n_iter
        )
        if not want_report:
            return float(totals[0].max())
        return self._report(
            distribution, self._table_views(flat[0]), totals[0], steady[0],
            n_iter, telemetry,
        )

    def _report(
        self,
        distribution: GenBlock,
        tables: List[_SectionTables],
        totals,
        steady,
        n_iter: int,
        telemetry: Optional[Recorder],
    ) -> PredictionReport:
        """Assemble the per-node, per-section report of one prediction
        from its tables and its per-node ``totals`` / ``steady``
        increments."""
        P = self.n_nodes
        nodes = []
        for n in range(P):
            sections = []
            for t in tables:
                compute = float(t.tile_compute[n].sum())
                io = float(t.tile_totals[n].sum()) - compute
                sections.append(
                    SectionBreakdown(
                        section=t.section.name,
                        compute_seconds=compute,
                        io_seconds=io,
                        comm_seconds=0.0,  # filled below
                    )
                )
            local = sum(s.compute_seconds + s.io_seconds for s in sections)
            # Attribute the communication residual to the sections that
            # actually communicate, proportionally to their messages.
            # The residual can dip below zero when the steady-state
            # iteration is cheaper than the summed local work (overlap);
            # a negative "communication time" is meaningless, so clamp.
            comm = max(float(steady[n]) - local, 0.0)
            comm_specs = [
                t.section.comm
                for t in tables
                if t.section.comm.pattern is not CommPattern.NONE
            ]
            total_bytes = sum(c.message_bytes for c in comm_specs)
            final_sections = []
            for s, t in zip(sections, tables):
                if t.section.comm.pattern is CommPattern.NONE:
                    share = 0.0
                elif total_bytes > 0:
                    share = comm * t.section.comm.message_bytes / total_bytes
                else:
                    # Zero-byte messages still synchronise; split evenly.
                    share = comm / len(comm_specs)
                final_sections.append(
                    SectionBreakdown(
                        section=s.section,
                        compute_seconds=s.compute_seconds,
                        io_seconds=s.io_seconds,
                        comm_seconds=share,
                    )
                )
            nodes.append(
                NodePrediction(
                    node=n,
                    iteration_seconds=float(steady[n]),
                    total_seconds=float(totals[n]),
                    sections=tuple(final_sections),
                )
            )
        if telemetry:
            self._record_phases(
                telemetry, distribution, tables, totals, steady, n_iter
            )
        return PredictionReport(
            program_name=self.program.name,
            distribution=distribution,
            iterations=n_iter,
            nodes=tuple(nodes),
        )

    # -- telemetry phase breakdown ----------------------------------------------

    def _record_phases(
        self,
        rec: Recorder,
        distribution: GenBlock,
        tables: List[_SectionTables],
        totals,
        steady,
        n_iter: int,
    ) -> None:
        """Record the per-node phase decomposition of a prediction.

        Five phases per node, over the whole ``n_iter``-iteration run:

        ``comp``
            measured computation, rescaled (Section 4.2.1) and summed
            over the iteration-profile multipliers when one exists;
        ``io_sync`` / ``io_prefetch``
            the Equation-1 vs. Equation-2 shares of the stage tables'
            I/O, plus the disk reads that materialise outgoing
            neighbour-exchange messages (sync, Equation 3's ``source
            read`` term);
        ``comm_overhead``
            per-message ``send_overhead``/``recv_overhead`` seconds
            charged to the node that pays them (message counts are a
            pure function of the section patterns);
        ``blocked``
            everything else — the residual of the node's predicted
            total clock, i.e. time spent waiting on neighbours,
            collectives, and pipeline fills.

        ``blocked`` is *defined* as the residual, so the five phases
        sum to the node's predicted total exactly (to float rounding),
        which is what the ``repro stats`` acceptance gate checks.
        """
        P = self.n_nodes
        micro = self.inputs.micro
        counts = distribution.counts
        sections = self.program.sections
        if self.program.iteration_profile is None:
            comp_scale = float(n_iter)
        else:
            comp_scale = sum(self._iteration_scales(n_iter))
        sec_counts = [
            _pattern_message_counts(s.comm.pattern, P, s.tiles)
            for s in sections
        ]
        agg = {
            "comp": 0.0, "io_sync": 0.0, "io_prefetch": 0.0,
            "comm_overhead": 0.0, "blocked": 0.0, "total": 0.0,
        }
        bottleneck = 0
        for n in range(P):
            comp_iter = sum(float(t.tile_compute[n].sum()) for t in tables)
            local_iter = sum(float(t.tile_totals[n].sum()) for t in tables)
            io_iter = local_iter - comp_iter
            plan = self.oracle.plan(n, counts[n])
            prefetch_iter = sum(
                self.stage_model.node_prefetch_io_seconds(
                    n, counts[n], s, plan
                )
                for s in sections
            )
            sync_iter = io_iter - prefetch_iter
            sends = 0
            recvs = 0
            source_iter = 0.0
            for (sec_sends, sec_recvs), t in zip(sec_counts, tables):
                sends += sec_sends[n]
                recvs += sec_recvs[n]
                if t.section.comm.pattern is CommPattern.NEAREST_NEIGHBOR:
                    source_iter += sec_sends[n] * float(t.source_read[n])
            overhead_iter = (
                sends * micro.send_overhead + recvs * micro.recv_overhead
            )
            comp_total = comp_iter * comp_scale
            sync_total = sync_iter * n_iter + source_iter * n_iter
            prefetch_total = prefetch_iter * n_iter
            overhead_total = overhead_iter * n_iter
            node_total = float(totals[n])
            blocked = (
                node_total
                - comp_total
                - sync_total
                - prefetch_total
                - overhead_total
            )
            phases = {
                "comp": comp_total,
                "io_sync": sync_total,
                "io_prefetch": prefetch_total,
                "comm_overhead": overhead_total,
                "blocked": blocked,
                "total": node_total,
            }
            for name, value in phases.items():
                rec.set(f"model/phase/node{n}/{name}", value)
                agg[name] += value
            rec.count(f"model/messages/node{n}/sends", sends * n_iter)
            rec.count(f"model/messages/node{n}/recvs", recvs * n_iter)
            if node_total > float(totals[bottleneck]):
                bottleneck = n
        # Top-level gauges describe the bottleneck node — its clock *is*
        # the predicted application time — plus all-node phase sums.
        for name in ("comp", "io_sync", "io_prefetch", "comm_overhead",
                     "blocked", "total"):
            rec.set(
                f"model/phase/{name}",
                rec.gauges[f"model/phase/node{bottleneck}/{name}"],
            )
            rec.set(f"model/phase/allnodes/{name}", agg[name])
        rec.set("model/phase/bottleneck_node", bottleneck)
        rec.set("model/phase/iterations", n_iter)
        rec.set(
            "model/phase/steady_iteration_seconds",
            float(steady[bottleneck]),
        )
