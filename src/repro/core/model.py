"""MhetaModel: the assembled execution-time predictor.

``predict`` walks the program's parallel sections with per-node clocks:
stage times come from :class:`~repro.core.io_model.StageTimeModel`
(measured computation rescaled to the candidate distribution, plus
Equation 1/2 I/O from the out-of-core oracle), and section-closing
communication comes from :class:`~repro.core.comm.SectionTimeline`
(Equation 3/4 waits, reduction, allgather).  The predicted application
time is the slowest node's clock after the final iteration.

Two evaluation kernels produce those clocks:

* ``kernel="scalar"`` — the reference implementation: per-tile,
  per-stage, per-block Python loops, kept exactly as originally
  written so the fast path always has a bit-stable baseline to be
  checked against.
* ``kernel="numpy"`` (default) — the vectorised kernel: every missing
  ``(node, rows)`` table of a call is built in one batched pass of
  closed-form array expressions over ``(pairs, tiles)``
  (:meth:`StageTimeModel.section_tile_times`) and the communication
  timeline advances ``np.ndarray`` clocks
  (:meth:`SectionTimeline.advance_arrays`).  It agrees with the scalar
  reference to rounding (<= 1e-12 relative, pinned by the golden
  equivalence suite in ``tests/test_kernel_equivalence.py``).

The per-node stage tables depend only on ``(node, rows)`` — not on what
the *other* nodes were assigned — so a bounded LRU inside the model
reuses them across *every* prediction: a hill-climb move changes two
nodes' row counts, so P-2 nodes hit the cache even through
single-candidate :meth:`predict_seconds` calls.

The model deliberately knows nothing about relative CPU powers, disk
bandwidths, page caches, or per-row work variation: everything
hardware- or application-specific enters through the measured
``MhetaInputs``, exactly as in the paper.  Only node *memory capacities*
are read from the cluster description, because the out-of-core heuristic
needs them (Section 4.2.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.comm import (
    SectionTimeline,
    maxplus_compose,
    maxplus_compose_batch,
)
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
from repro.obs import Recorder, warn_once
from repro.program.sections import CommPattern, ParallelSection
from repro.program.structure import ProgramStructure
from repro.util.lru import LRUCache

__all__ = ["MhetaModel", "KERNELS", "DEFAULT_TABLE_CACHE_ENTRIES"]

#: Selectable evaluation kernels.  ``"plan"`` evaluates through a
#: compiled :class:`repro.core.plan.EvaluationPlan` (one-time lowering
#: of the (app structure, cluster shape) triple, JIT-compiled with
#: numba when available) and falls back to the numpy machinery for
#: reports and iteration-profile programs.
KERNELS = ("numpy", "scalar", "plan")

#: Default bound of the per-``(node, rows)`` table cache.  Generous for
#: any search (a 200-evaluation sweep over 8 nodes touches at most 1600
#: distinct keys) while keeping long unattended sweeps at a fixed memory
#: ceiling.
DEFAULT_TABLE_CACHE_ENTRIES = 4096


def _tile_rows(rows: int, tiles: int, tile: int) -> int:
    lo = (rows * tile) // tiles
    hi = (rows * (tile + 1)) // tiles
    return hi - lo


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


@dataclass(frozen=True)
class _SectionTables:
    """Precomputed per-section evaluation tables for one distribution.

    ``tile_totals``/``tile_compute`` are per-node, per-tile stage-time
    tables: nested lists for the scalar kernel, ``(P, tiles)`` float64
    arrays for the numpy kernel (with ``tile_sums`` the per-node section
    totals, precomputed so steady-state walks skip the reduction).
    For the numpy kernel, exactly one of ``matrix``/``advance`` is set:
    ``matrix`` is the section's max-plus matrix
    (:meth:`SectionTimeline.compile_matrix`), which the steady-state
    walk composes with its neighbours into one per-iteration matrix;
    ``advance`` is the compiled replay closure for sections with no
    clock-independent matrix (pipelines).
    """

    section: ParallelSection
    tile_totals: Sequence
    tile_compute: Sequence
    source_read: Sequence
    tile_sums: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    advance: Optional[Callable[[np.ndarray], np.ndarray]] = None


class MhetaModel:
    """Predict execution times for candidate distributions.

    Parameters
    ----------
    program, memories, inputs:
        As in the paper: the application structure, the per-node memory
        capacities (or the cluster they come from), and the measured
        internal MHETA file.
    kernel:
        ``"numpy"`` (vectorised, default) or ``"scalar"`` (the reference
        implementation).
    table_cache:
        Bound of the persistent ``(node, rows) -> tables`` LRU shared by
        every prediction this model makes.  ``0`` disables cross-call
        reuse (each :meth:`predict_many` batch still shares a transient
        bounded memo).
    """

    def __init__(
        self,
        program: ProgramStructure,
        memories: Union[ClusterSpec, Sequence[int]],
        inputs: MhetaInputs,
        kernel: str = "numpy",
        table_cache: int = DEFAULT_TABLE_CACHE_ENTRIES,
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
        if kernel not in KERNELS:
            raise ModelError(
                f"unknown kernel {kernel!r}; choose from {KERNELS}"
            )
        if table_cache < 0:
            raise ModelError("table_cache must be >= 0")
        self.program = program
        self.inputs = inputs
        self.kernel = kernel
        self.oracle = OutOfCoreOracle(program, memory_list)
        self.stage_model = StageTimeModel(program, inputs)
        self.timeline = SectionTimeline(inputs.micro, len(memory_list))
        self._tables_cache: Optional[LRUCache] = (
            LRUCache(table_cache) if table_cache > 0 else None
        )
        # Tile-axis layout of the flattened per-node tables the numpy
        # kernel caches: section ``si`` owns columns
        # ``offsets[si]:offsets[si + 1]``.
        tiles = [s.tiles for s in program.sections]
        self._tile_offsets = [0]
        for t in tiles:
            self._tile_offsets.append(self._tile_offsets[-1] + t)
        self._total_tiles = self._tile_offsets[-1]
        # Compiled evaluation plan (kernel="plan"): resolved lazily via
        # ensure_plan / the process-wide plan LRU, dropped on pickling.
        self._plan = None
        self._fingerprint: Optional[str] = None

    @property
    def n_nodes(self) -> int:
        return self.oracle.n_nodes

    @property
    def table_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the persistent table cache."""
        if self._tables_cache is None:
            return {"size": 0, "maxsize": 0, "hits": 0, "misses": 0,
                    "evictions": 0}
        return self._tables_cache.stats

    # -- compiled evaluation plans ----------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content hash of the (app structure, cluster shape, kernel
        options) triple — the key under which compiled plans are shared
        process-wide.  Two models with equal fingerprints produce
        identical predictions, so they may share one plan."""
        if self._fingerprint is None:
            p = self.program
            h = hashlib.sha256()
            h.update(
                repr(
                    (
                        p.name,
                        p.n_rows,
                        p.iterations,
                        p.prefetch,
                        tuple(
                            (
                                s.name,
                                s.tiles,
                                repr(s.stages),
                                s.comm.pattern.value,
                                s.comm.message_bytes,
                                s.comm.source_variable,
                            )
                            for s in p.sections
                        ),
                        repr(p.variables),
                        tuple(self.oracle._memory),
                    )
                ).encode()
            )
            if p.row_weights is not None:
                h.update(np.ascontiguousarray(p.row_weights).tobytes())
            if p.iteration_profile is not None:
                h.update(
                    np.ascontiguousarray(p.iteration_profile).tobytes()
                )
            h.update(self.inputs.to_json().encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def ensure_plan(self, telemetry: Optional[Recorder] = None):
        """Resolve this model's compiled evaluation plan (a plan-LRU
        hit, or a fresh compile under ``span/plan/compile``).  Public so
        long-lived holders — the serve coordinator's resident models —
        can warm the plan ahead of the first scoring pass."""
        if self._plan is None:
            from repro.core.plan import get_plan

            self._plan = get_plan(self, telemetry=telemetry)
        return self._plan

    def release_plan(self) -> None:
        """Drop this model's compiled plan from the process-wide plan
        LRU (resident-model eviction must not leak plans across cache
        tiers)."""
        if self._plan is not None:
            from repro.core.plan import discard_plan

            discard_plan(self._plan.fingerprint)
            self._plan = None

    def __getstate__(self) -> dict:
        # Plans hold closures and scratch buffers; workers recompile (or
        # hit their own process's plan LRU) lazily after unpickling.
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    # -- prediction -------------------------------------------------------------

    def predict(
        self,
        distribution,
        iterations: Optional[int] = None,
        *,
        batch=False,
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
            one vectorized pass (``<= 1e-12`` relative vs. the serial
            path).
        ``predict(dists, batch="serial")``
            a ``List[float]`` from the bit-identical serial loop
            (what spectrum sweeps use: exact per-candidate equality
            with single calls, tables shared through the LRU).

        ``telemetry`` takes a :class:`repro.obs.Recorder`; with
        ``report=True`` it additionally records the per-node phase
        breakdown (comp / sync-I/O / prefetch-I/O / send+recv overhead /
        blocked) whose components sum exactly to each node's predicted
        total.  ``telemetry=None`` (default) costs one truthiness check.
        """
        if batch:
            if report:
                raise ModelError(
                    "report=True is only available for single predictions"
                )
            dists = list(distribution)
            if batch == "serial":
                if telemetry:
                    telemetry.count("model/serial_batches")
                    telemetry.observe("model/serial_batch_size", len(dists))
                transient = (
                    LRUCache(DEFAULT_TABLE_CACHE_ENTRIES)
                    if self._tables_cache is None
                    else None
                )
                out = [
                    self._predict(
                        d, iterations, want_report=False,
                        table_cache=transient,
                    )
                    for d in dists
                ]
                if telemetry:
                    self._record_cache_gauges(telemetry)
                    telemetry.count("model/predictions", len(dists))
                return out
            out = self._predict_batch(dists, iterations, telemetry=telemetry)
            if telemetry:
                telemetry.count("model/batch_predictions")
                telemetry.observe("model/batch_size", len(dists))
                telemetry.count("model/predictions", len(dists))
                self._record_cache_gauges(telemetry)
            return out
        result = self._predict(
            distribution, iterations, want_report=report, telemetry=telemetry
        )
        if telemetry:
            telemetry.count("model/predictions")
            self._record_cache_gauges(telemetry)
        return result

    # -- deprecated aliases (thin shims; each warns once per process) --------

    def predict_seconds(
        self,
        distribution: GenBlock,
        iterations: Optional[int] = None,
    ) -> float:
        """Deprecated alias for :meth:`predict`."""
        warn_once(
            "MhetaModel.predict_seconds", "MhetaModel.predict(distribution)"
        )
        return self.predict(distribution, iterations)

    def predict_many(
        self,
        distributions: Sequence[GenBlock],
        iterations: Optional[int] = None,
    ) -> List[float]:
        """Deprecated alias for ``predict(dists, batch="serial")``."""
        warn_once(
            "MhetaModel.predict_many",
            'MhetaModel.predict(distributions, batch="serial")',
        )
        return self.predict(distributions, iterations, batch="serial")

    def predict_seconds_batch(
        self,
        distributions: Sequence[GenBlock],
        iterations: Optional[int] = None,
    ) -> np.ndarray:
        """Deprecated alias for ``predict(dists, batch=True)``."""
        warn_once(
            "MhetaModel.predict_seconds_batch",
            "MhetaModel.predict(distributions, batch=True)",
        )
        return self.predict(distributions, iterations, batch=True)

    def _record_cache_gauges(self, rec: Recorder) -> None:
        stats = self.table_cache_stats
        rec.set("model/table_cache/size", stats["size"])
        rec.set("model/table_cache/hits", stats["hits"])
        rec.set("model/table_cache/misses", stats["misses"])
        rec.set("model/table_cache/evictions", stats["evictions"])
        if self.kernel == "plan":
            from repro.core.plan import plan_cache_stats

            pstats = plan_cache_stats()
            rec.set("model/plan_cache/size", pstats["size"])
            rec.set("model/plan_cache/hits", pstats["hits"])
            rec.set("model/plan_cache/misses", pstats["misses"])
            rec.set("model/plan_cache/compiles", pstats["compiles"])
            rec.set(
                "model/plan_cache/compile_seconds",
                pstats["compile_seconds"],
            )

    def _batch_counts(self, dists: Sequence[GenBlock]) -> np.ndarray:
        """Stack and validate candidate row counts as ``(B, P)`` int64.

        Validation is vectorized (one shape check, one row-sum check);
        only on failure does it fall back to the per-candidate loop, so
        the error messages match the sequential path exactly."""
        P = self.n_nodes

        def _validate_loop() -> None:
            for d in dists:
                if d.n_nodes != P:
                    raise ModelError(
                        "distribution does not match the model's nodes"
                    )
                if d.n_rows != self.program.n_rows:
                    raise ModelError(
                        "distribution does not cover the program's rows"
                    )

        n_rows = self.program.n_rows
        counts = np.empty((len(dists), P), dtype=np.int64)
        try:
            # Row-assigning each candidate's cached int64 mirror is the
            # cheapest exact stacking; the explicit length check (a
            # length-1 array would broadcast silently) and the cached
            # row total validate each candidate in-loop.  Any mismatch
            # or a foreign distribution type falls back to the loop
            # whose messages match the sequential path.
            for i, d in enumerate(dists):
                mirror = d.counts_np
                if len(mirror) != P or d._n_rows != n_rows:
                    raise ValueError
                counts[i] = mirror
            return counts
        except (ValueError, TypeError, AttributeError):
            pass
        _validate_loop()
        return np.array([d.counts for d in dists], dtype=np.int64)

    def _predict_batch(
        self,
        distributions: Sequence[GenBlock],
        iterations: Optional[int] = None,
        telemetry: Optional[Recorder] = None,
    ) -> np.ndarray:
        """Score a whole candidate population in one vectorized pass.

        The candidates' GEN_BLOCK row counts stack into a ``(B, P)``
        matrix; each distinct ``(node, rows)`` pair across the *whole
        batch* is looked up in the shared table LRU once, and every miss
        is built in one batched table pass (:meth:`_build_tables`); then
        the numpy kernel — stage-table assembly, max-plus
        section matrices and their composition, the steady-state clock
        walk — evaluates every section over the candidate axis in a
        single array pass instead of once per candidate.  Candidates
        never mix (no reduction crosses the batch axis), so entry ``b``
        agrees with ``predict_seconds(distributions[b])`` to within the
        kernel contract (<= 1e-12 relative; pinned by
        ``tests/test_batch_equivalence.py``).

        ``kernel="scalar"`` models fall back to a loop of scalar
        predictions, preserving the golden-equivalence contract
        bit-for-bit; iteration-profile programs (no steady state to
        extrapolate) loop the per-candidate numpy walk.
        """
        dists = list(distributions)
        if not dists:
            return np.empty(0)
        P = self.n_nodes
        counts = self._batch_counts(dists)
        n_iter = (
            iterations if iterations is not None else self.program.iterations
        )
        if (
            self.kernel == "plan"
            and self.program.iteration_profile is None
        ):
            plan = self._plan
            if plan is None:
                plan = self.ensure_plan(telemetry)
            return plan.execute(counts, n_iter)
        if (
            self.kernel != "numpy"
            or self.program.iteration_profile is not None
        ):
            return np.array(
                [
                    self._predict(d, iterations, want_report=False)
                    for d in dists
                ]
            )
        B = len(dists)
        sections = self.program.sections
        # Each distinct (node, rows) pair of the batch, keyed as one int.
        stride = self.program.n_rows + 1
        keys, inverse = np.unique(
            counts + stride * np.arange(P), return_inverse=True
        )
        flat = self._tables(
            (keys // stride).tolist(), (keys % stride).tolist(),
            self._tables_cache,
        )[inverse.reshape(B, P)]
        T = self._total_tiles
        all_totals = flat[:, :, :T]
        all_source = flat[:, :, 2 * T:]

        timeline = self.timeline
        offsets = self._tile_offsets

        def matrix_op(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
            return lambda clocks: (A + clocks[:, None, :]).max(axis=2)

        ops: List[Callable[[np.ndarray], np.ndarray]] = []
        pending: Optional[np.ndarray] = None
        for si, section in enumerate(sections):
            lo, hi = offsets[si], offsets[si + 1]
            tile_totals = all_totals[:, :, lo:hi]
            tile_sums = (
                tile_totals[:, :, 0]
                if hi - lo == 1
                else tile_totals.sum(axis=2)
            )
            matrix = timeline.compile_matrix_batch(
                section.comm.pattern,
                section.comm.message_bytes,
                all_source[:, :, si],
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
                        tile_totals,
                        section.comm.message_bytes,
                    )
                )
        if pending is not None:
            ops.append(matrix_op(pending))
        totals = self._steady_walk_batch(ops, n_iter, B)
        return totals.max(axis=1)

    def _steady_walk_batch(
        self,
        ops: List[Callable[[np.ndarray], np.ndarray]],
        n_iter: int,
        batch: int,
    ) -> np.ndarray:
        """Batched :meth:`_steady_walk`: ``(B, P)`` clocks advance
        through the fused per-iteration ops together, but each candidate
        converges *individually* — the moment candidate ``b``'s
        increment vector repeats (the scalar walk's convergence rule,
        same tolerances), its extrapolated totals are frozen while the
        rest keep walking.  Frozen rows keep advancing numerically
        (max-plus ops are stable) but their recorded result no longer
        changes, so per-candidate results match the sequential walk."""
        P = self.n_nodes
        clocks = np.zeros((batch, P))
        totals = np.empty((batch, P))
        active = np.ones(batch, dtype=bool)
        second_last: Optional[np.ndarray] = None
        last: Optional[np.ndarray] = None
        prev_steady: Optional[np.ndarray] = None
        simulate = 0
        while simulate < n_iter:
            for op in ops:
                clocks = op(clocks)
            second_last, last = last, clocks
            simulate += 1
            if second_last is not None:
                steady_now = last - second_last
                if prev_steady is not None:
                    converged = (
                        np.abs(steady_now - prev_steady)
                        <= 1e-12 + 1e-9 * np.abs(prev_steady)
                    ).all(axis=1)
                    newly = active & converged
                    if newly.any():
                        totals[newly] = (
                            last[newly]
                            + steady_now[newly] * (n_iter - simulate)
                        )
                        active[newly] = False
                        if not active.any():
                            return totals
                prev_steady = steady_now
        # Walked every iteration without (all candidates) converging:
        # the remaining rows' totals are simply their final clocks.
        totals[active] = last[active]
        return totals

    # -- table construction -----------------------------------------------------

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
        compute-only) plus the message source-read cost — scalar
        reference path."""
        out = []
        for section in self.program.sections:
            totals: List[float] = []
            computes: List[float] = []
            for tile in range(section.tiles):
                trows = _tile_rows(rows, section.tiles, tile)
                c_sum = 0.0
                t_sum = 0.0
                for stage in section.stages:
                    st = self.stage_model.tile_stage_times(
                        n, rows, section, stage, trows, plan
                    )
                    c_sum += st.compute_seconds
                    t_sum += st.total
                totals.append(t_sum)
                computes.append(c_sum)
            out.append((totals, computes, self._source_read(n, section, plan)))
        return out

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

    def _tables(
        self, nodes: Sequence[int], rows: Sequence[int], cache
    ) -> np.ndarray:
        """Stacked :meth:`_build_tables` rows of every ``(node, rows)``
        pair: from ``cache`` where present, all misses built in one pass.
        Each new entry is its own compact read-only row (it never pins
        the batch arrays), shared by every later prediction."""
        keys = list(zip(nodes, rows))
        entries = (
            cache.get_many(keys) if cache is not None else [None] * len(keys)
        )
        missing = [i for i, e in enumerate(entries) if e is None]
        if missing:
            idx = np.array(missing)
            built = self._build_tables(
                np.asarray(nodes, dtype=np.int64)[idx],
                np.asarray(rows, dtype=np.int64)[idx],
            )
            for row, i in zip(built, missing):
                entry = row.copy()
                entry.setflags(write=False)
                entries[i] = entry
                if cache is not None:
                    cache.put(keys[i], entry)
        return np.stack(entries)

    def _section_tables(
        self,
        distribution: GenBlock,
        table_cache: Optional[LRUCache] = None,
    ) -> List[_SectionTables]:
        """Precompute, per section: tile stage-times (split by compute
        and I/O) and per-node message source-read costs.  These are the
        same for every iteration, so the iteration loop only replays the
        communication timeline.  Per-``(node, rows)`` work is memoised
        in the model's bounded LRU (or the explicit ``table_cache``
        override), shared across every prediction."""
        P = self.n_nodes
        cache = table_cache if table_cache is not None else self._tables_cache
        counts = distribution.counts
        if self.kernel != "scalar":
            per_node = self._tables(range(P), counts, cache)
        else:
            per_node = []
            for n in range(P):
                key = (n, counts[n])
                entry = cache.get(key) if cache is not None else None
                if entry is None:
                    entry = self._node_tables(
                        n, counts[n], self.oracle.plan(n, counts[n])
                    )
                    if cache is not None:
                        cache.put(key, entry)
                per_node.append(entry)
        tables = []
        if self.kernel != "scalar":
            # Per-section column views of the stacked (P, ...) tables.
            T = self._total_tiles
            all_totals = per_node[:, :T]
            all_compute = per_node[:, T:2 * T]
            all_source = per_node[:, 2 * T:]
            for si, section in enumerate(self.program.sections):
                lo, hi = self._tile_offsets[si], self._tile_offsets[si + 1]
                tile_totals = all_totals[:, lo:hi]
                tile_compute = all_compute[:, lo:hi]
                source_read = all_source[:, si]
                tile_sums = (
                    tile_totals[:, 0]
                    if hi - lo == 1
                    else tile_totals.sum(axis=1)
                )
                matrix = self.timeline.compile_matrix(
                    section.comm.pattern,
                    tile_totals,
                    section.comm.message_bytes,
                    source_read,
                    tile_sums,
                )
                advance = (
                    None
                    if matrix is not None
                    else self.timeline.compile_advance(
                        section.comm.pattern,
                        tile_totals,
                        section.comm.message_bytes,
                        source_read,
                        tile_sums,
                    )
                )
                tables.append(
                    _SectionTables(
                        section=section,
                        tile_totals=tile_totals,
                        tile_compute=tile_compute,
                        source_read=source_read,
                        tile_sums=tile_sums,
                        matrix=matrix,
                        advance=advance,
                    )
                )
            return tables
        for si, section in enumerate(self.program.sections):
            tables.append(
                _SectionTables(
                    section=section,
                    tile_totals=[per_node[n][si][0] for n in range(P)],
                    tile_compute=[per_node[n][si][1] for n in range(P)],
                    source_read=[per_node[n][si][2] for n in range(P)],
                )
            )
        return tables

    # -- iteration walks --------------------------------------------------------

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
                        abs(a - b) <= 1e-12 + 1e-9 * abs(b)
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
        # the instrumented iteration measured computation at the
        # profile's first multiplier; each later iteration scales its
        # computation share accordingly.  Every iteration is walked
        # explicitly — no steady state exists to extrapolate.
        m0 = self.program.iteration_multiplier(0)
        for it in range(n_iter):
            mult = (
                self.program.iteration_multiplier(it)
                if it < self.program.iterations
                else 1.0
            ) / m0
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

    @staticmethod
    def _iteration_ops(
        tables: List[_SectionTables],
    ) -> List[Callable[[np.ndarray], np.ndarray]]:
        """Fuse one iteration's section advances for the numpy kernel.

        Runs of consecutive max-plus matrices compose into a single
        matrix (:func:`maxplus_compose`), so an all-matrix program —
        any mix of NONE / nearest-neighbour / reduction / allgather
        sections — walks each steady-state iteration with one ``(A +
        clocks).max(axis=1)``.  Pipeline sections stay as their replay
        closures, splitting the composition.
        """

        def matrix_op(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
            return lambda clocks: (A + clocks).max(axis=1)

        ops: List[Callable[[np.ndarray], np.ndarray]] = []
        pending: Optional[np.ndarray] = None
        for t in tables:
            if t.matrix is not None:
                pending = (
                    t.matrix
                    if pending is None
                    else maxplus_compose(t.matrix, pending)
                )
            else:
                if pending is not None:
                    ops.append(matrix_op(pending))
                    pending = None
                ops.append(t.advance)
        if pending is not None:
            ops.append(matrix_op(pending))
        return ops

    def _steady_walk(
        self,
        ops: List[Callable[[np.ndarray], np.ndarray]],
        n_iter: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Iterate the fused per-iteration ops until the increment
        vector repeats (same convergence rule as the scalar walk), then
        extrapolate linearly.  Only the last two clock vectors are
        retained; the increment comparison runs on Python floats —
        cheaper than array ops at typical node counts.  Returns
        ``(totals, steady)``."""
        clocks = np.zeros(self.n_nodes)
        second_last: Optional[np.ndarray] = None
        last: Optional[np.ndarray] = None
        prev_steady: Optional[List[float]] = None
        steady_now: Optional[np.ndarray] = None
        simulate = 0
        while simulate < n_iter:
            for op in ops:
                clocks = op(clocks)
            second_last, last = last, clocks
            simulate += 1
            if second_last is not None:
                steady_now = last - second_last
                steady_list = steady_now.tolist()
                if prev_steady is not None:
                    for a, b in zip(steady_list, prev_steady):
                        if abs(a - b) > 1e-12 + 1e-9 * abs(b):
                            break
                    else:
                        break
                prev_steady = steady_list
        if n_iter == 1 or second_last is None:
            return last, last
        totals = last + steady_now * (n_iter - simulate)
        return totals, steady_now

    def _walk_arrays(
        self, tables: List[_SectionTables], n_iter: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised clock walk: same control flow as
        :meth:`_walk_scalar`, per-node arithmetic on float64 arrays."""
        clocks = np.zeros(self.n_nodes)
        iter_ends: List[np.ndarray] = []
        profile = self.program.iteration_profile
        if profile is None:
            return self._steady_walk(self._iteration_ops(tables), n_iter)
        m0 = self.program.iteration_multiplier(0)
        for it in range(n_iter):
            mult = (
                self.program.iteration_multiplier(it)
                if it < self.program.iterations
                else 1.0
            ) / m0
            for t in tables:
                scaled = t.tile_totals + (mult - 1.0) * t.tile_compute
                clocks = self.timeline.advance_arrays(
                    t.section.comm.pattern,
                    clocks,
                    scaled,
                    t.section.comm.message_bytes,
                    t.source_read,
                )
            iter_ends.append(clocks)
        totals = iter_ends[-1]
        steady = (
            iter_ends[-1] - iter_ends[-2] if n_iter >= 2 else iter_ends[0]
        )
        return totals, steady

    # -- assembly ---------------------------------------------------------------

    @staticmethod
    def _row_sum(row) -> float:
        """Sum one node's per-tile table (list or ndarray)."""
        if isinstance(row, np.ndarray):
            return float(row.sum())
        return sum(row)

    def _predict(
        self,
        distribution: GenBlock,
        iterations: Optional[int],
        want_report: bool,
        table_cache: Optional[LRUCache] = None,
        telemetry: Optional[Recorder] = None,
    ):
        if distribution.n_nodes != self.n_nodes:
            raise ModelError("distribution does not match the model's nodes")
        if distribution.n_rows != self.program.n_rows:
            raise ModelError("distribution does not cover the program's rows")
        n_iter = (
            iterations if iterations is not None else self.program.iterations
        )
        if not want_report and self.program.iteration_profile is None:
            if self.kernel == "plan":
                plan = self._plan
                if plan is None:
                    plan = self.ensure_plan(telemetry)
                counts = np.array([distribution.counts], dtype=np.int64)
                return float(plan.execute(counts, n_iter)[0])
        P = self.n_nodes
        tables = self._section_tables(distribution, table_cache)

        if self.kernel != "scalar":
            totals, steady = self._walk_arrays(tables, n_iter)
            if not want_report:
                return float(totals.max())
        else:
            totals, steady = self._walk_scalar(tables, n_iter)
            if not want_report:
                return max(totals)

        nodes = []
        for n in range(P):
            sections = []
            for t in tables:
                compute = self._row_sum(t.tile_compute[n])
                io = self._row_sum(t.tile_totals[n]) - compute
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
        profile = self.program.iteration_profile
        if profile is None:
            comp_scale = float(n_iter)
        else:
            m0 = self.program.iteration_multiplier(0)
            comp_scale = sum(
                (
                    self.program.iteration_multiplier(it)
                    if it < self.program.iterations
                    else 1.0
                )
                / m0
                for it in range(n_iter)
            )
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
            comp_iter = sum(self._row_sum(t.tile_compute[n]) for t in tables)
            local_iter = sum(self._row_sum(t.tile_totals[n]) for t in tables)
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
