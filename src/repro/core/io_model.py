"""Stage-time model: computation scaling plus Equations 1 and 2.

``sync_io_seconds`` and ``prefetch_io_seconds`` are the paper's closed
forms.  :class:`StageTimeModel` applies the same equations block by
block, mirroring the runtime's ICLA streaming loop exactly (including
the final partial block and, for prefetching, the unrolled loop of paper
Figure 6 where the disk seek of a prefetched block hides inside the
overlap window).  For equal-size blocks and ``To = 0`` both formulations
coincide with Equation 1; the unit tests pin that equivalence down.
:class:`~repro.core.MhetaModel` evaluates those block loops in closed
form over the row-count arrays of many (node, rows) pairs at once
(:meth:`StageTimeModel.section_tile_times`); the per-tile scalar
assembly they replace is the test oracle in ``tests/model_reference.py``.

Computation scales with assigned work: ``Tc' = Tc * W'/W`` where ``W``
is the row count the instrumented distribution assigned (Section 4.2.1).
MHETA has no per-row cost information — which is exactly why sparse CG
defeats it (Section 5.4).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.instrument.inputs import MhetaInputs, NodeCosts
from repro.placement import MemoryPlan
from repro.program.sections import ParallelSection
from repro.program.stages import Stage
from repro.program.structure import ProgramStructure

__all__ = [
    "sync_io_seconds",
    "prefetch_io_seconds",
    "StageTimeModel",
]


def sync_io_seconds(
    n_io: int,
    read_seek: float,
    read_icla_seconds: float,
    write_seek: float = 0.0,
    write_icla_seconds: float = 0.0,
) -> float:
    """Paper Equation 1: total synchronous I/O for one out-of-core array.

    ``TIO(v) = N_IO(v) * (rs + R_ICLA(v) + ws + W_ICLA(v))`` — the seek
    overheads and per-ICLA latencies paid once per pass.  Write terms are
    zero for read-only arrays; ``n_io == 0`` means in core.
    """
    if n_io < 0:
        raise ModelError("n_io must be non-negative")
    return n_io * (
        read_seek + read_icla_seconds + write_seek + write_icla_seconds
    )


def prefetch_io_seconds(
    n_io: int,
    read_seek: float,
    read_icla_seconds: float,
    overlap_seconds: float,
    write_seek: float = 0.0,
    write_icla_seconds: float = 0.0,
) -> float:
    """Paper Equation 2 (reconstructed): I/O with one-block-ahead
    prefetching.

    ``TIO(v) = N_IO*(rs + To + ws + W) + R + (N_IO - 1) * Re``, with the
    effective read latency ``Re = max(0, R - To)``.  The first ICLA read
    pays the full latency; the remaining ``N_IO - 1`` latencies are
    mitigated by the overlap computation ``To``, which is charged whether
    or not the prefetch succeeds ("prefetching can be more expensive than
    regular synchronous reads").  With ``To = 0`` this reduces exactly to
    Equation 1.
    """
    if n_io < 0:
        raise ModelError("n_io must be non-negative")
    if n_io == 0:
        return 0.0
    effective = max(0.0, read_icla_seconds - overlap_seconds)
    return (
        n_io * (read_seek + overlap_seconds + write_seek + write_icla_seconds)
        + read_icla_seconds
        + (n_io - 1) * effective
    )


def _block_rows(tile_rows: int, block_rows: int) -> List[int]:
    """Row counts of the ICLA pieces streaming ``tile_rows`` (mirrors the
    runtime: full blocks then a final partial one)."""
    blocks = []
    remaining = tile_rows
    while remaining > 0:
        take = min(block_rows, remaining)
        blocks.append(take)
        remaining -= take
    return blocks


class StageTimeModel:
    """Predict per-stage computation + I/O time for a candidate
    distribution, from the instrumented measurements."""

    def __init__(
        self,
        program: ProgramStructure,
        inputs: MhetaInputs,
        prefetch_issue_overhead: Optional[float] = None,
    ) -> None:
        self._program = program
        self._inputs = inputs
        self._issue_overhead = (
            prefetch_issue_overhead
            if prefetch_issue_overhead is not None
            else inputs.micro.prefetch_issue_overhead
        )
        self._arrays: Optional[dict] = None

    # -- measured-cost lookups -------------------------------------------------

    def _node_costs(self, node: int) -> NodeCosts:
        try:
            return self._inputs.nodes[node]
        except IndexError:
            raise ModelError(f"no instrumented costs for node {node}")

    def scaled_compute(
        self, node: int, section: ParallelSection, stage: Stage, rows: int
    ) -> float:
        """``Tc' = Tc * W'/W`` for the whole stage (all tiles)."""
        costs = self._node_costs(node)
        cost = costs.stage_cost(section.name, stage.name)
        if cost is None:
            raise ModelError(
                f"node {node}: stage {section.name}/{stage.name} was not "
                "measured during the instrumented iteration"
            )
        if costs.rows0 <= 0:
            raise ModelError(
                f"node {node}: instrumented distribution assigned no rows"
            )
        return cost.compute_seconds * (rows / costs.rows0)

    def _read_pb(self, node: int, variable: str) -> float:
        io = self._node_costs(node).io.get(variable)
        if io is not None and io.read_seconds_per_byte > 0:
            return io.read_seconds_per_byte
        return self._inputs.micro.disks[node].read_byte_latency

    def _write_pb(self, node: int, variable: str) -> float:
        io = self._node_costs(node).io.get(variable)
        if io is not None and io.write_seconds_per_byte > 0:
            return io.write_seconds_per_byte
        return self._inputs.micro.disks[node].write_byte_latency

    def read_block_seconds(self, node: int, variable: str, nbytes: float) -> float:
        disk = self._inputs.micro.disks[node]
        return disk.read_seek + nbytes * self._read_pb(node, variable)

    def write_block_seconds(self, node: int, variable: str, nbytes: float) -> float:
        disk = self._inputs.micro.disks[node]
        return disk.write_seek + nbytes * self._write_pb(node, variable)

    # -- streaming loops ------------------------------------------------------------

    def _stream_seconds(
        self, node, name, plan, tile_rows, *, read: bool, write: bool
    ) -> float:
        if tile_rows == 0:
            return 0.0
        placement = plan.placements[name]
        row_bytes = self._program.variable(name).row_bytes
        total = 0.0
        for rows in _block_rows(tile_rows, placement.block_rows):
            nbytes = rows * row_bytes
            if read:
                total += self.read_block_seconds(node, name, nbytes)
            if write:
                total += self.write_block_seconds(node, name, nbytes)
        return total

    def _sync_loop_seconds(self, node, name, plan, tile_rows, write_back) -> float:
        """Equation 1, block by block (reads plus optional write-backs)."""
        return self._stream_seconds(
            node, name, plan, tile_rows, read=True, write=write_back
        )

    def _prefetch_loop_seconds(
        self, node, name, plan, tile_rows, tile_compute, write_back
    ) -> float:
        """Equation 2 evaluated over the actual unrolled loop: the first
        read is cold; each later read hides behind the previous block's
        computation; write-backs are synchronous.

        Returns only the I/O-attributable seconds: total loop time minus
        the tile's computation (which the caller adds separately).
        """
        placement = plan.placements[name]
        row_bytes = self._program.variable(name).row_bytes
        blocks = _block_rows(tile_rows, placement.block_rows)
        if len(blocks) == 1:
            return self._sync_loop_seconds(node, name, plan, tile_rows, write_back)
        shares = [tile_compute * b / tile_rows for b in blocks]
        io = self.read_block_seconds(node, name, blocks[0] * row_bytes)
        for i in range(1, len(blocks)):
            read = self.read_block_seconds(node, name, blocks[i] * row_bytes)
            overlap = shares[i - 1]
            # Issue overhead, plus whatever latency the overlap fails to
            # hide (compute itself is accounted by the caller).
            io += self._issue_overhead + max(0.0, read - overlap)
            if write_back:
                io += self.write_block_seconds(
                    node, name, blocks[i - 1] * row_bytes
                )
        if write_back:
            io += self.write_block_seconds(node, name, blocks[-1] * row_bytes)
        return io

    # -- telemetry helpers -------------------------------------------------------

    def node_prefetch_io_seconds(
        self,
        node: int,
        rows: int,
        section: ParallelSection,
        plan: MemoryPlan,
    ) -> float:
        """The Equation-2 (prefetch-loop) share of this node's section
        I/O, summed over every tile and stage; zero for non-prefetching
        programs.

        Telemetry-only: the phase breakdown reports ``io_prefetch`` from
        this and ``io_sync`` as the remainder of the stage tables' I/O,
        so the two always sum to the table I/O exactly.  Scalar replay of
        the per-tile loop the tables evaluate in closed form — cheap at
        report granularity, never on a hot path.
        """
        if not self._program.prefetch:
            return 0.0
        variables = self._program.variable_map
        placements = plan.placements

        def _ooc(name: str) -> bool:
            p = placements.get(name)
            return p is not None and not p.in_core

        tiles = section.tiles
        total = 0.0
        for stage in section.stages:
            reads_ooc = [v for v in stage.reads if _ooc(v)]
            if not reads_ooc:
                continue
            primary = reads_ooc[0]
            write_back = (
                primary in stage.writes and variables[primary].writes_back
            )
            compute_total = self.scaled_compute(node, section, stage, rows)
            for t in range(tiles):
                trows = (rows * (t + 1)) // tiles - (rows * t) // tiles
                if trows == 0:
                    continue
                tile_compute = (
                    compute_total * (trows / rows) if rows > 0 else 0.0
                )
                total += self._prefetch_loop_seconds(
                    node, primary, plan, trows, tile_compute, write_back
                )
        return total

    # -- batched section kernel -------------------------------------------------
    #
    # The scalar methods above walk tiles, then ICLA blocks, in Python.
    # Every block of one tile is full-sized except possibly the last, so
    # the per-tile streaming loops collapse to closed forms in the number
    # of full blocks and the remainder.  The methods below evaluate them
    # over a ``(K, tiles)`` grid of ``K`` (node, rows) pairs sharing one
    # in-core pattern, single-tile sections included, with node inputs
    # gathered per pair from :meth:`_node_arrays`.  Operations are
    # elementwise over pairs, and agree with the scalar reference to
    # rounding (the order of the sums differs, nothing else), which the
    # golden equivalence suite pins to <= 1e-12 relative error.

    def _node_arrays(self) -> dict:
        """Per-node measured inputs as arrays indexed by node, built once
        through the scalar lookups (so a node whose stage costs cannot
        be scaled raises the scalar path's error, in its node order)."""
        if self._arrays is None:
            P, disks = self._inputs.n_nodes, self._inputs.micro.disks
            rows0 = [costs.rows0 for costs in self._inputs.nodes]
            stages = [(sec, st) for sec in self._program.sections
                      for st in sec.stages]
            compute = np.array([
                [self.scaled_compute(n, sec, st, rows0[n]) for sec, st in stages]
                for n in range(P)
            ]).reshape(P, len(stages))
            names = [v.name for v in self._program.distributed_variables]

            def per_node(cost):
                return {v: np.array([cost(n, v) for n in range(P)])
                        for v in names}

            self._arrays = {
                "compute": {(sec.name, st.name): compute[:, i]
                            for i, (sec, st) in enumerate(stages)},
                "rows0": np.array(rows0),
                "read_seek": np.array([d.read_seek for d in disks]),
                "write_seek": np.array([d.write_seek for d in disks]),
                "read_pb": per_node(self._read_pb),
                "write_pb": per_node(self._write_pb),
            }
        return self._arrays

    def section_tile_times(
        self,
        nodes: np.ndarray,
        rows: np.ndarray,
        section: ParallelSection,
        block_rows: dict,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-tile ``(totals, computes)`` of every stage of ``section``
        summed, as ``(K, tiles)`` float64 arrays, for ``K`` pairs whose
        out-of-core variables are exactly the keys of ``block_rows``
        (each mapped to its ``(K,)`` ICLA row counts)."""
        arrays = self._node_arrays()
        # Every tile's rows: the model's per-tile (rows * t) // tiles bounds.
        bounds = (rows[:, None] * np.arange(section.tiles + 1)) // section.tiles
        tile_rows = bounds[:, 1:] - bounds[:, :-1]
        ratio = tile_rows / np.maximum(rows, 1)[:, None]
        scale = rows / arrays["rows0"][nodes]

        def stream(name, read, write):
            return self._stream_seconds_array(
                nodes, name, block_rows[name], tile_rows, read, write
            )

        # Adding to an exact 0.0 start leaves the first term unchanged,
        # so these sums match the scalar reference's per-term accumulation.
        totals = computes = 0.0
        for stage in section.stages:
            compute = arrays["compute"][(section.name, stage.name)][nodes]
            tile_compute = (compute * scale)[:, None] * ratio
            reads_ooc = [v for v in stage.reads if v in block_rows]
            primary = reads_ooc[0] if reads_ooc else None
            io = 0.0
            for name in reads_ooc[1:]:
                io = io + stream(name, True, False)
            if primary is not None:
                write_back = (
                    primary in stage.writes
                    and self._program.variable_map[primary].writes_back
                )
                if self._program.prefetch:
                    io = io + self._prefetch_loop_seconds_array(
                        nodes, primary, block_rows[primary], tile_rows,
                        tile_compute, write_back,
                    )
                else:
                    io = io + stream(primary, True, write_back)
            for name in stage.writes:
                if name in block_rows and name != primary:
                    io = io + stream(name, False, True)
            computes = computes + tile_compute
            totals = totals + (tile_compute + io)
        return totals, computes

    def _stream_seconds_array(
        self, nodes, name, block, tile_rows: np.ndarray, read: bool,
        write: bool,
    ) -> np.ndarray:
        """Closed form of :meth:`_stream_seconds` over ``(K, tiles)``:
        full blocks and a remainder (the closed form of :func:`_block_rows`)."""
        block = block[:, None]
        n_full = tile_rows // block
        rem = tile_rows - n_full * block
        row_bytes = self._program.variable_map[name].row_bytes
        arrays = self._node_arrays()
        has_rem = rem > 0
        n_full_f = n_full.astype(np.float64)
        total = 0.0
        for on, kind in ((read, "read"), (write, "write")):
            if on:
                seek = arrays[kind + "_seek"][nodes][:, None]
                pb = arrays[kind + "_pb"][name][nodes][:, None]
                full = seek + (block * row_bytes) * pb
                partial = seek + (rem * row_bytes) * pb
                total = total + (n_full_f * full + has_rem * partial)
        return total

    def _prefetch_loop_seconds_array(
        self, nodes, name, block, tile_rows: np.ndarray,
        tile_compute: np.ndarray, write_back: bool,
    ) -> np.ndarray:
        """Closed form of :meth:`_prefetch_loop_seconds` over
        ``(K, tiles)``.

        With ``n`` blocks (all full-sized except possibly the last), the
        unrolled loop is: one cold read, ``n - 2`` full reads each
        overlapped by a full block's computation share, one last read
        (full or partial) overlapped the same way, plus synchronous
        write-backs of every block.  Tiles streaming a single block fall
        back to the synchronous form, exactly like the scalar path.
        """
        sync = self._stream_seconds_array(
            nodes, name, block, tile_rows, True, write_back
        )
        block = block[:, None]
        n_full = tile_rows // block
        rem = tile_rows - n_full * block
        row_bytes = self._program.variable_map[name].row_bytes
        arrays = self._node_arrays()
        seek = arrays["read_seek"][nodes][:, None]
        rpb = arrays["read_pb"][name][nodes][:, None]
        has_rem = rem > 0
        read_full = seek + (block * row_bytes) * rpb
        read_partial = seek + (rem * row_bytes) * rpb
        share_full = tile_compute * block / np.maximum(tile_rows, 1)
        issue = self._issue_overhead
        hidden_full = np.maximum(0.0, read_full - share_full)
        hidden_last = np.maximum(0.0, read_partial - share_full)
        n_mid = np.maximum(n_full - 1, 0).astype(np.float64)
        prefetched = (
            read_full
            + n_mid * (issue + hidden_full)
            + has_rem * (issue + hidden_last)
        )
        if write_back:
            wseek = arrays["write_seek"][nodes][:, None]
            wpb = arrays["write_pb"][name][nodes][:, None]
            write_full = wseek + (block * row_bytes) * wpb
            write_partial = wseek + (rem * row_bytes) * wpb
            prefetched = prefetched + (
                n_full.astype(np.float64) * write_full
                + has_rem * write_partial
            )
        return np.where(n_full + has_rem >= 2, prefetched, sync)
